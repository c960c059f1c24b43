"""The integer-row PGF routes against dense Fraction products rebuilt here."""

import math
import tracemalloc
from fractions import Fraction as Fr

import pytest

from momentforge.errors import SizeGuardError
from momentforge.families import boolean, common, domino, invmaj
from momentforge.families.common import PGF_GUARD, pgf_total
from momentforge.poly_series import Polynomial

HALF = Polynomial("q", (Fr(1, 2), Fr(1, 2)))


def test_invmaj_pgf_is_the_mahonian_product():
    product = Polynomial("q", (1,))
    for n in range(1, 16):
        product = product * Polynomial("q", (1,) * n)
        assert invmaj.pgf(n) == product * Fr(1, math.factorial(n)), n


def test_boolean_k0_pgf_is_the_binomial_power():
    for n in range(1, 7):
        pgf, source = boolean.FAMILY.pgf({"n": n, "k": 0})
        assert source == "closed-form"
        assert pgf == HALF ** (2**n), n


def test_domino_1xn_pgf_is_the_binomial_power():
    for n in range(1, 65):
        pgf, source = domino.FAMILY.pgf({"m": 1, "n": n})
        assert source == "closed-form"
        assert pgf == HALF ** (n - 1), n


def _h_by_fraction_powers(n, k):
    p = boolean.h_probability(n, k)
    base = Polynomial("q", (1 - p, p))
    N = 2**n
    acc = Polynomial("q", ())
    for m in range(N + 1):
        acc = acc + base ** math.comb(m, 2**k) * math.comb(N, m)
    return acc * Fr(1, 2**N)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 1), (3, 2), (3, 3), (4, 1)])
def test_h_polynomial_is_the_sum_of_fraction_powers(n, k):
    assert boolean.h_polynomial(n, k) == _h_by_fraction_powers(n, k)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 1)])
def test_h_polynomial_factorial_moments_match_the_sums(n, k, monkeypatch):
    # H_4(q) at k = 2 weighs about 3.3e7, past PGF_GUARD: raised here, read at call time
    monkeypatch.setattr(common, "PGF_GUARD", 10**8)
    h = boolean.h_polynomial(n, k)
    # every coefficient is an integer over one power of 2, so sum the numerators
    total = max(c.denominator for c in h.coeffs)
    counts = [c.numerator * (total // c.denominator) for c in h.coeffs]
    assert sum(counts) == total
    moments = boolean.h_moments(n, k)
    assert Fr(sum(d * c for d, c in enumerate(counts)), total) == moments["mean"]
    assert Fr(sum(d * (d - 1) * c for d, c in enumerate(counts)), total) == moments["second_factorial"]


def test_h4_with_its_polynomial_is_refused_by_the_pgf_guard(run):
    proc = run("approx-h", "--n", "4", "--k", "2", "--with-polynomial")
    assert proc.code == 1
    assert proc.out == ""
    assert (
        "H_4(q) for k=2, of degree 1820: a lower bound on (degree + 1) * bit_length(total) = 33173157, "
        "beyond the PGF_GUARD size guard" in proc.err
    ), proc.err


@pytest.mark.parametrize("n,k", [(4, 2), (6, 1), (12, 1), (14, 7)])
def test_h_polynomials_past_the_guard_are_refused_before_their_powers_and_rows(n, k, monkeypatch, run):
    # H_12(q) at k = 1 has degree 8386560: the charge of degree + 1 alone would let it build a
    # total of 1024^8386560 (10 MB) before the exact charge refuses it
    def never(*args):
        raise AssertionError(f"a power or row built for H_{n}(q) at k = {k}, past the guard")

    for module in (boolean, common):
        monkeypatch.setattr(module, "binomial_row", never)
    monkeypatch.setattr(boolean, "_powers", never)
    tracemalloc.start()
    try:
        proc = run("approx-h", "--n", str(n), "--k", str(k), "--with-polynomial")
        assert proc.code == 1
        assert tracemalloc.get_traced_memory()[1] < 10**6
    finally:
        tracemalloc.stop()
    assert proc.out == ""
    assert "beyond the PGF_GUARD size guard" in proc.err, proc.err


def test_binomial_row():
    assert common.binomial_row(5) == [1, 5, 10, 10, 5, 1]
    assert common.binomial_row(0) == [1]
    for N in range(12):
        assert common.binomial_row(N) == [math.comb(N, d) for d in range(N + 1)], N


def test_pgf_total_guard():
    assert pgf_total(9, lambda: 8) == 8
    bits = PGF_GUARD // 10
    assert pgf_total(9, lambda: 1 << (bits - 1)).bit_length() == bits
    with pytest.raises(SizeGuardError, match="PGF_GUARD"):
        pgf_total(9, lambda: 1 << bits)

    def never():
        raise AssertionError("total built for a degree past the guard")

    with pytest.raises(SizeGuardError, match="PGF_GUARD"):
        pgf_total(PGF_GUARD, never)
    # a degree too long to print is shown as a bound
    with pytest.raises(SizeGuardError, match=r"a PGF of degree 2\^26575 or more: .*PGF_GUARD"):
        pgf_total(10**8000, never)


def test_binomial_pgfs_past_the_guard_are_refused_before_their_row(monkeypatch, run):
    def never(N):
        raise AssertionError(f"the binomial row of {N} built for a PGF past the guard")

    monkeypatch.setattr(common, "binomial_row", never)
    for argv in (["pgf", "--family", "domino", "--m", "1", "--n", "50000"], ["pgf", "--family", "boolean", "--n", "13"]):
        proc = run(*argv)
        assert proc.code == 1, argv
        assert "PGF_GUARD" in proc.err, (argv, proc.err)


def test_boolean_pgfs_far_past_the_guard_are_refused_from_n(monkeypatch, run):
    # 2^14285 has 4301 digits, past the interpreter's int-to-str limit: the
    # refusal shows the degree as a power of two, and 2^n is never built
    # (2^(10^9) would take 125 MB)
    def never(N):
        raise AssertionError("2^n built for a boolean PGF past the guard")

    monkeypatch.setattr(boolean, "half_binomial_pgf", never)
    tracemalloc.start()
    try:
        for n in (14285, 20000, 10**9):
            proc = run("pgf", "--family", "boolean", "--n", str(n))
            assert proc.code == 1, n
            assert "PGF_GUARD" in proc.err and f"a PGF of degree 2^{n}:" in proc.err, (n, proc.err)
        assert tracemalloc.get_traced_memory()[1] < 10**7
    finally:
        tracemalloc.stop()


def test_last_requests_inside_the_guard_are_served():
    assert boolean.FAMILY.closed_pgf({"n": 12, "k": 0}).degree == 4096
    assert boolean.h_polynomial(12, 0) == boolean.FAMILY.closed_pgf({"n": 12, "k": 0})
    assert domino.FAMILY.closed_pgf({"m": 1, "n": 4472}).degree == 4471
    # invmaj n = 187 itself takes about 1 s; its guard check alone passes
    assert pgf_total(187 * 186 // 2, lambda: math.factorial(187)) == math.factorial(187)
