import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge.errors import SingularSeriesError
from momentforge.poly_series import Polynomial, QuasiPolynomial, TruncatedSeries
from reference import exp_series, generalized_binomial_series, log_series

R = 8


def z_series():
    return TruncatedSeries.variable(R)


small_fracs = st.fractions(min_value=Fr(-9), max_value=Fr(9), max_denominator=12)


def series_strategy(constant=None):
    def build(coeffs):
        if constant is not None:
            coeffs = [Fr(constant)] + coeffs[1:]
        return TruncatedSeries("z", R, coeffs)

    return st.lists(small_fracs, min_size=R + 1, max_size=R + 1).map(build)


class TestPolynomial:
    def test_canonical_form_strips_trailing_zeros(self):
        p = Polynomial("n", (1, 2, 0, 0))
        assert p.coeffs == (Fr(1), Fr(2))
        assert p.degree == 1

    def test_zero_degree_sentinel(self):
        assert Polynomial("n", ()).degree == float("-inf")

    def test_arithmetic(self):
        n = Polynomial.variable("n")
        p = (n - 1) * (n + 1)
        assert p == n**2 - 1
        assert p / 4 == Polynomial("n", (Fr(-1, 4), 0, Fr(1, 4)))
        assert (p - p).is_zero()

    def test_mixed_symbol_rejected(self):
        n = Polynomial.variable("n")
        q = Polynomial.variable("q")
        with pytest.raises(TypeError):
            _ = n + q

    def test_constants_cross_symbols(self):
        n5 = Polynomial.const("n", 5)
        q = Polynomial.variable("q")
        assert n5 + q == q + 5
        assert n5 == 5

    def test_eval_examples(self):
        n = Polynomial.variable("n")
        c = 2
        p = (n - 1) * (n - 1 + 2 * c) / (4 * c * c)
        assert p.eval(5) == 2  # brute-forced over all 2^5 colorings elsewhere
        root = n - 3
        assert root.eval(3) == 0

    def test_mu_table_eval(self):
        # mu(m,n) at m=2, n=3 is 7/2 (2^6 E[X] = 224 in the first-moment table)
        m, n = 2, 3
        mu = Fr(2 * m * n - m - n, 2)
        assert mu == Fr(7, 2)

    def test_eval_substitutes_a_polynomial(self):
        n = Polynomial.variable("n")
        p = n**2 + 1
        assert p.eval(n - 1) == n**2 - 2 * n + 2
        # w = W/2: a polynomial in w = 2^(n-1) rewritten in W = 2^n
        half_W = Polynomial("W", (0, Fr(1, 2)))
        assert Polynomial("w", (0, 1, 3)).eval(half_W) == Polynomial("W", (0, Fr(1, 2), Fr(3, 4)))

    def test_to_text_deterministic_ordering(self):
        n = Polynomial.variable("n")
        p = 3 * n**4 / 768 + n**2 - Fr(1, 2)
        assert p.to_text() == "1/256*n^4 + n^2 - 1/2"

    def test_nested_coefficients(self):
        n = Polynomial.variable("n")
        w = Polynomial("W", (0, n / 8))
        assert w.coefficient(1) == n / 8
        sq = w * w
        assert sq.coefficient(2) == n * n / 64


class TestQuasiPolynomial:
    def test_canonical_minimal_period(self):
        n = Polynomial.variable("n")
        qp = QuasiPolynomial(4, [n, n + 1, n, n + 1])
        assert qp.period == 2
        qp1 = QuasiPolynomial(6, [n] * 6)
        assert qp1.period == 1

    def test_branch_dispatch_total(self):
        n = Polynomial.variable("n")
        qp = QuasiPolynomial(3, [n, 2 * n, 3 * n])
        for v in range(30):
            assert qp.eval(v) == (v % 3 + 1) * v
        with pytest.raises(ValueError):
            qp.eval(-1)

    def test_evaluate_helper(self):
        n = Polynomial.variable("n")
        assert (n + 1).eval(4) == 5
        assert QuasiPolynomial(2, [n, n + 1]).eval(5) == 6


class TestSeries:
    def test_mul_examples(self):
        z = TruncatedSeries.variable(2)
        one = TruncatedSeries.constant(1, 2)
        prod = (one + z) * (one - z)
        assert prod.coeffs == (Fr(1), Fr(0), Fr(-1))
        a = 1 + z + z * z
        assert a * one == a

    def test_mul_exp_square(self):
        # (sum z^i/i!)^2 at R=3 -> 1 + 2z + 2z^2 + 4/3 z^3
        e = exp_series(TruncatedSeries.variable(3))
        sq = e * e
        assert sq.coeffs == (Fr(1), Fr(2), Fr(2), Fr(4, 3))

    def test_mismatched_operands_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries.variable(3) * TruncatedSeries.variable(4)
        with pytest.raises(ValueError):
            TruncatedSeries.variable(3) * TruncatedSeries("y", 3, (0, 1))

    def test_div_examples(self):
        z = z_series()
        one = TruncatedSeries.constant(1, R)
        a = 1 + z + 3 * z * z
        assert a / a == one
        geo = one / (one - z)
        assert all(geo.coefficient(i) == 1 for i in range(R + 1))
        q = (1 + z) / (1 + z / 2)
        assert q.coefficient(0) == 1 and q.coefficient(1) == Fr(1, 2)
        assert q.coefficient(2) == Fr(-1, 4)

    def test_div_singular(self):
        z = z_series()
        with pytest.raises(SingularSeriesError):
            (1 + z) / z

    def test_generalized_binomial(self):
        gb = generalized_binomial_series(Fr(2), 4)
        assert gb.coeffs[:3] == (Fr(1), Fr(2), Fr(1))
        assert gb.coefficient(3) == 0
        n = Polynomial.variable("n")
        gbn = generalized_binomial_series(n, 4)
        assert gbn.coefficient(2) == n * (n - 1) / 2
        half = generalized_binomial_series((n - 1) / 2, 4)
        assert half.coefficient(2) == (n - 1) * (n - 3) / 8

    def test_generalized_binomial_integer_alpha_matches_expansion(self):
        for a in range(6):
            gb = generalized_binomial_series(Fr(a), 6)
            base = TruncatedSeries("z", 6, (1, 1))
            assert gb == base**a

    def test_exp_log_examples(self):
        z = TruncatedSeries.variable(3)
        zero = TruncatedSeries.constant(0, 3)
        assert exp_series(zero) == TruncatedSeries.constant(1, 3)
        e = exp_series(z)
        assert e.coeffs == (Fr(1), Fr(1), Fr(1, 2), Fr(1, 6))
        l = log_series(1 + z)
        assert l.coeffs == (Fr(0), Fr(1), Fr(-1, 2), Fr(1, 3))
        assert log_series(TruncatedSeries.constant(1, 3)) == zero

    def test_exp_log_preconditions(self):
        z = z_series()
        with pytest.raises(ValueError):
            exp_series(1 + z)
        with pytest.raises(ValueError):
            log_series(z)

    def test_log_of_centered_kernel(self):
        # log((2+z)/(2 sqrt(1+z))) = z^2/8 - z^3/8 + ...
        z = TruncatedSeries.variable(3)
        half = generalized_binomial_series(Fr(-1, 2), 3)
        l = log_series((1 + z / 2) * half)
        assert l.coeffs == (Fr(0), Fr(0), Fr(1, 8), Fr(-1, 8))

    def test_exp_with_polynomial_exponent(self):
        # exp(w (z^2/8 - z^3/8 + ...)): coefficient of z^2 is w/8
        w = Polynomial.variable("w")
        z = z_series()
        half = generalized_binomial_series(Fr(-1, 2), R)
        kernel = log_series((1 + z / 2) * half)
        p = exp_series(kernel * w)
        assert p.coefficient(2) == w / 8

    @settings(derandomize=True, max_examples=60)
    @given(series_strategy(), series_strategy(constant=1))
    def test_div_mul_roundtrip(self, a, b):
        assert (a / b) * b == a

    @settings(derandomize=True, max_examples=60)
    @given(series_strategy(constant=1))
    def test_exp_log_roundtrip(self, a):
        assert exp_series(log_series(a)) == a


# -- integer numerators over one denominator, against Fraction arithmetic --------
#
# A reference value is a Fraction or, for a polynomial in n, the list of its
# Fraction coefficients; a reference polynomial in W is the list of such values.


def _ref_add(x, y):
    if isinstance(x, Fr) and isinstance(y, Fr):
        return x + y
    x, y = (v if isinstance(v, list) else [v] for v in (x, y))
    return [_ref_add(x[i] if i < len(x) else Fr(0), y[i] if i < len(y) else Fr(0)) for i in range(max(len(x), len(y)))]


def _ref_mul(x, y):
    if isinstance(x, Fr) and isinstance(y, Fr):
        return x * y
    if isinstance(x, Fr):
        x, y = y, x
    if isinstance(y, Fr):
        return [_ref_mul(c, y) for c in x]
    out = [Fr(0)] * (len(x) + len(y) - 1) if x and y else []
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] = _ref_add(out[i + j], _ref_mul(a, b))
    return out


def _ref_eval(ref, value):
    out = Fr(0)
    for c in reversed(ref):
        out = _ref_add(_ref_mul(out, value), c)
    return out


def _flat(value):
    """The reference form of a Fraction or a polynomial: a Fraction, or its coefficients, trailing zeros dropped."""
    if isinstance(value, Fr):
        return value
    out = [_flat(c) for c in (value.coeffs if isinstance(value, Polynomial) else value)]
    while out and out[-1] in (Fr(0), []):
        out.pop()
    return out


def _same(got, ref) -> bool:
    """got (a Fraction or a polynomial) has the value of ref, constants and constant polynomials alike."""
    a, b = _flat(got), _flat(ref)
    a, b = ([a] if a else []) if isinstance(a, Fr) else a, ([b] if b else []) if isinstance(b, Fr) else b
    return len(a) == len(b) and all(_same(x, y) if isinstance(x, list) or isinstance(y, list) else x == y for x, y in zip(a, b))


def _random_fraction(rng, zero_share=0.3):
    """0 with probability zero_share, else a nonzero Fraction."""
    if rng.random() < zero_share:
        return Fr(0)
    return Fr(rng.choice([-1, 1]) * rng.randint(1, 60), rng.choice([1, 2, 3, 4, 6, 8, 12, 64, 97]))


def _random_poly(rng, nested: bool):
    """(Polynomial in W, its reference): Fraction coefficients, or with some coefficients polynomials in n."""
    ref = []
    for _ in range(rng.randint(0, 5)):
        if nested and rng.random() < 0.6:
            ref.append([_random_fraction(rng) for _ in range(rng.randint(0, 3))])
        else:
            ref.append(_random_fraction(rng))
    poly = Polynomial("W", [Polynomial("n", c) if isinstance(c, list) else c for c in ref])
    return poly, ref


def _check_form(p: Polynomial):
    assert p.den > 0
    if p.is_numeric():
        assert math.gcd(p.den, *p.nums) == 1, p
        assert p.texts() == [str(p.coefficient(d)) for d in range(len(p.nums))]
    else:
        assert p.den == 1


@pytest.mark.parametrize("seed", range(6))
def test_integer_numerators_match_fraction_arithmetic(seed):
    rng = random.Random(seed)
    for _ in range(60):
        (p, pr), (q, qr) = (_random_poly(rng, rng.random() < 0.4) for _ in range(2))
        c = _random_fraction(rng, zero_share=0) if rng.random() < 0.5 else Fr(rng.randint(1, 9))
        x = Polynomial("n", [_random_fraction(rng) for _ in range(3)])
        xr = list(x.coeffs)
        e = rng.randint(0, 3)
        power = [Fr(1)]
        for _ in range(e):
            power = _ref_mul(power, pr)
        cases = [
            (p + q, _ref_add(pr, qr)),
            (p - q, _ref_add(pr, _ref_mul(qr, Fr(-1)))),
            (-p, _ref_mul(pr, Fr(-1))),
            (p * q, _ref_mul(pr, qr)),
            (p**e, power),
            (p * c, _ref_mul(pr, c)),
            (c * p, _ref_mul(pr, c)),
            (p * int(c.numerator), _ref_mul(pr, Fr(c.numerator))),
            (p / c, _ref_mul(pr, 1 / c)),
            (p + c, _ref_add(pr, c)),
        ]
        for got, ref in cases:
            assert _same(got, ref), (got, ref)
            assert got == Polynomial("W", [Polynomial("n", v) if isinstance(v, list) else v for v in ref])
            _check_form(got)
        for value in (rng.randint(-5, 5), _random_fraction(rng, zero_share=0)):
            got = p.eval(value)
            assert _same(got, _ref_eval(pr, Fr(value)))
            if p.is_numeric():
                assert isinstance(got, Fr)
        got = p.eval(x)
        assert _same(got, _ref_eval(pr, xr))
        if isinstance(got, Polynomial):
            _check_form(got)


@pytest.mark.parametrize("seed", range(3))
def test_a_row_of_counts_is_read_as_its_fractions(seed):
    rng = random.Random(seed)
    for _ in range(40):
        total = rng.choice([1, 6, 8, 1 << 70, 3**40, 720])
        counts = [rng.randint(0, total) for _ in range(rng.randint(0, 6))]
        row = Polynomial("q", counts, total)
        ref = [Fr(c, total) for c in counts]
        assert row.coeffs == tuple(_flat(ref)) and row == Polynomial("q", ref)
        assert row.texts() == [str(v) for v in row.coeffs]
        _check_form(row * 1)


# -- truncated series, against coefficient-wise Fraction arithmetic cut at the order --
#
# A reference series is the list of its order + 1 coefficients, each a Fraction
# or, for a polynomial in w, the list of its Fraction coefficients.


def _random_series(rng, order: int, nested: bool, unit: bool = False):
    """(TruncatedSeries in z, its reference): a nonzero number first if ``unit``, some polynomials in w if ``nested``."""
    ref = []
    for i in range(order + 1):
        if unit and i == 0:
            ref.append(_random_fraction(rng, zero_share=0))
        elif nested and rng.random() < 0.5:
            ref.append([_random_fraction(rng) for _ in range(rng.randint(0, 3))])
        else:
            ref.append(_random_fraction(rng))
    return _series(order, ref), ref


def _series(order: int, ref) -> TruncatedSeries:
    return TruncatedSeries("z", order, [Polynomial("w", c) if isinstance(c, list) else c for c in ref])


def _ref_series_mul(x, y):
    """x * y cut at the order, by _ref_mul and _ref_add on each pair of coefficients."""
    out = [Fr(0)] * len(x)
    for i, a in enumerate(x):
        for j in range(len(x) - i):
            out[i + j] = _ref_add(out[i + j], _ref_mul(a, y[j]))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_series_match_fraction_arithmetic_cut_at_the_order(seed):
    rng = random.Random(seed)
    for order in range(9):
        for _ in range(6):
            nested = rng.random() < 0.5
            (a, ar), (b, br) = (_random_series(rng, order, nested) for _ in range(2))
            u, ur = _random_series(rng, order, nested, unit=True)
            c = _random_fraction(rng, zero_share=0)
            i = rng.randint(-9, 9) or 1
            w = Polynomial("w", [_random_fraction(rng) for _ in range(3)])
            e = rng.randint(0, 4)
            power = [Fr(1)] + [Fr(0)] * order
            for _ in range(e):
                power = _ref_series_mul(power, ar)
            cases = [
                (a + b, [_ref_add(x, y) for x, y in zip(ar, br)]),
                (a - b, [_ref_add(x, _ref_mul(y, Fr(-1))) for x, y in zip(ar, br)]),
                (-a, [_ref_mul(x, Fr(-1)) for x in ar]),
                (a * b, _ref_series_mul(ar, br)),
                (a * i, [_ref_mul(x, Fr(i)) for x in ar]),
                (i * a, [_ref_mul(x, Fr(i)) for x in ar]),
                (a * c, [_ref_mul(x, c) for x in ar]),
                (a * w, [_ref_mul(x, list(w.coeffs)) for x in ar]),
                (w * a, [_ref_mul(x, list(w.coeffs)) for x in ar]),
                (a + c, [_ref_add(ar[0], c)] + ar[1:]),
                (i - a, [_ref_add(Fr(i), _ref_mul(ar[0], Fr(-1)))] + [_ref_mul(x, Fr(-1)) for x in ar[1:]]),
                (a / c, [_ref_mul(x, 1 / c) for x in ar]),
                (a / i, [_ref_mul(x, Fr(1, i)) for x in ar]),
                (a**e, power),
            ]
            for got, ref in cases:
                assert len(got.coeffs) == order + 1
                assert all(_same(x, y) for x, y in zip(got.coeffs, ref)), (got, ref)
                assert got == _series(order, ref)
                with pytest.raises(IndexError):
                    got.coefficient(order + 1)
            # the quotient by a unit series, times that series, is the dividend
            quotient = a / u
            assert len(quotient.coeffs) == order + 1
            product = _ref_series_mul([_flat(x) for x in quotient.coeffs], ur)
            assert all(_same(x, y) for x, y in zip(product, ar)), (a, u, quotient)
            for other in (TruncatedSeries("y", order, (1,)), TruncatedSeries("z", order + 1, (1,))):
                for op in (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t, lambda s, t: s / t):
                    with pytest.raises(ValueError):
                        op(a, other)
