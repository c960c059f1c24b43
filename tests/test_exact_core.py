import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge.exact_core import (
    binomial,
    falling_factorial,
    forward_differences,
    stirling1_signed,
    stirling2,
)
from momentforge.poly_series import Polynomial

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=97
)


def test_binomial_basics():
    assert binomial(5, 2) == 10
    assert binomial(3, 5) == 0
    assert binomial(7, 0) == 1
    assert binomial(0, 0) == 1
    assert binomial(-1, 0) == 1
    assert binomial(-2, 3) == -4  # (-2)(-3)(-4)/6


def test_binomial_rejects_negative_k():
    with pytest.raises(ValueError):
        binomial(5, -1)


def test_falling_factorial_scalars():
    assert falling_factorial(16, 2) == 240
    assert falling_factorial(Fraction(3, 2), 2) == Fraction(3, 4)
    assert falling_factorial(10, 0) == 1


def test_falling_factorial_polynomial():
    a = Polynomial.variable("A")
    assert falling_factorial(a, 3) == a**3 - 3 * a**2 + 2 * a


def test_stirling2_values():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert all(stirling2(r, 1) == 1 for r in range(1, 10))
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(5, 7) == 0


def test_stirling1_signed_values():
    assert stirling1_signed(3, 2) == -3
    assert stirling1_signed(4, 1) == -6
    assert all(stirling1_signed(j, j) == 1 for j in range(10))


def test_stirling1_matches_falling_factorial_expansion():
    x = Polynomial.variable("x")
    for j in range(9):
        ff = falling_factorial(x, j)
        expected = Polynomial("x", [stirling1_signed(j, k) for k in range(j + 1)])
        assert ff == expected


def test_stirling2_reconstructs_powers():
    # sum_i {r,i} (x)_i == x^r for r <= 12
    x = Polynomial.variable("x")
    for r in range(13):
        acc = Polynomial("x", ())
        for i in range(r + 1):
            acc = acc + stirling2(r, i) * falling_factorial(x, i)
        assert acc == x**r


def test_stirling_orthogonality():
    for r in range(13):
        for t in range(13):
            total = sum(stirling2(r, j) * stirling1_signed(j, t) for j in range(r + 1))
            assert total == (1 if r == t else 0)


@settings(derandomize=True, max_examples=200)
@given(rationals, rationals, rationals)
def test_rational_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(derandomize=True, max_examples=200)
@given(rationals)
def test_rational_normalization_idempotent(a):
    again = Fraction(a.numerator, a.denominator)
    assert again == a
    assert again.denominator > 0
    assert Fraction(0) == Fraction(0, 17)


def test_stirling_tables_grow_on_demand(monkeypatch):
    from momentforge import exact_core

    monkeypatch.setattr(exact_core, "_STIRLING2", [[1]])
    monkeypatch.setattr(exact_core, "_STIRLING1_SIGNED", [[1]])
    results = [[stirling2(40, i) for i in range(41)] for _ in range(2)]
    assert len(exact_core._STIRLING2) == len(exact_core._STIRLING1_SIGNED) == 41
    assert all(row == results[0] for row in results)
    assert results[0][2] == 2**39 - 1  # {r brace 2} = 2^(r-1) - 1
    assert stirling1_signed(40, 39) == -math.comb(40, 2)
    assert len(exact_core._STIRLING2) == 41


def _polynomial_values(coeffs, xs):
    return [sum(c * x**i for i, c in enumerate(coeffs)) for x in xs]


@pytest.mark.parametrize("degree", range(9))
def test_forward_differences_of_integer_polynomials(degree):
    coeffs = [(-3) ** i + 7 * i for i in range(degree + 1)]  # leading coefficient nonzero
    values = _polynomial_values(coeffs, range(-5, degree + 12))
    diffs, miss = forward_differences(values, degree)
    assert miss is None
    # Delta^k at the first value, from the whole difference table
    table = list(values)
    for k in range(degree + 1):
        assert diffs[k] == table[0]
        table = [b - a for a, b in zip(table, table[1:])]
    assert diffs[degree] == math.factorial(degree) * coeffs[degree]
    assert not any(table)
    # one degree too few: the first value past degree + 1 is already off
    if degree:
        assert forward_differences(values, degree - 1)[1] == degree


def test_forward_differences_exactly_degree_plus_one_values():
    assert forward_differences([4, 9, 25], 2) == ([4, 5, 11], None)
    assert forward_differences([7], 0) == ([7], None)
    assert forward_differences([7, 7, 7, 7], 0) == ([7], None)


@pytest.mark.parametrize("degree", [0, 1, 4])
def test_forward_differences_find_a_perturbation_at_every_position(degree):
    values = _polynomial_values([5, -2, 3, 1, -1][: degree + 1], range(12))
    for at in range(len(values)):
        for delta in (1, -1, 10**30):
            bad = list(values)
            bad[at] += delta
            diffs, miss = forward_differences(bad, degree)
            # a node moves the polynomial, which then misses the first value after the nodes
            assert miss == max(at, degree + 1)
            assert len(diffs) == degree + 1


def test_forward_differences_need_degree_plus_one_values():
    with pytest.raises(ValueError, match="2 values cannot fix a polynomial of degree 2"):
        forward_differences([1, 2], 2)
    with pytest.raises(ValueError):
        forward_differences([], 0)
