import math
from fractions import Fraction as Fr

import mpmath
import pytest

from momentforge.families import common, invmaj
from momentforge.oracle import enumerate_permutations
from momentforge.poly_series import Polynomial
from reference import generalized_binomial_series, maj_pgf, maj_rows, p_coefficient

N = Polynomial.variable("n")


def test_pgf_examples():
    assert invmaj.pgf(1) == 1
    assert invmaj.pgf(3) == Polynomial("q", (Fr(1, 6), Fr(2, 6), Fr(2, 6), Fr(1, 6)))
    assert invmaj.pgf(4).coefficient(3) == Fr(6, 24)


def test_pgf_normalized_and_symmetric():
    for n in range(1, 13):
        p = invmaj.pgf(n)
        coeffs = p.coeffs
        assert sum(coeffs) == 1
        assert all(c >= 0 for c in coeffs)
        top = n * (n - 1) // 2
        assert p.degree == top or (n == 1 and p.degree == 0)
        for j in range(len(coeffs)):
            assert coeffs[j] == coeffs[top - j]


def test_mean_variance():
    assert invmaj.mean_variance(1) == (0, 0)
    assert invmaj.mean_variance(3) == (Fr(3, 2), Fr(11, 12))
    assert invmaj.mean_variance(8) == (14, Fr(49, 3))
    assert invmaj.mean_variance(10) == (Fr(45, 2), Fr(125, 4))


def test_against_oracle():
    for n in range(1, 8):
        hist = enumerate_permutations(n).marginal_inv()
        assert invmaj.pgf(n) == hist.pgf()
        mu, var = invmaj.mean_variance(n)
        assert (mu, var) == (hist.mean(), hist.variance())


def test_p_coefficients_printed():
    assert p_coefficient(0) == 1
    assert p_coefficient(1).is_zero()
    assert p_coefficient(2) == (N - 1) * (N + 1) / 24
    assert p_coefficient(3) == -(N - 1) * (N + 1) / 24
    assert p_coefficient(4) == (N - 1) * (N + 1) * (N * N + 71) / 1920
    assert p_coefficient(5) == -(N - 1) * (N + 1) * (N * N + 31) / 960


def test_p_coefficients_leading_terms():
    # L{p_i} = n^i / (2^i (i+1)!) for even i, -(i-1) n^(i-1) / (2^i i!) for odd i
    for i in range(2, 9):
        p = p_coefficient(i)
        deg, coef = p.degree, p.coeffs[-1]
        if i % 2 == 0:
            assert (deg, coef) == (i, Fr(1, 2**i * math.factorial(i + 1)))
        else:
            assert (deg, coef) == (i - 1, Fr(-(i - 1), 2**i * math.factorial(i)))


def test_p_series_matches_direct_expansion():
    # Independent route: P(n,z) = [((1+z)^n - 1)/z] * (1+z)^(-(n-1)/2) / n
    from momentforge.exact_core import binomial as binom
    from momentforge.poly_series import TruncatedSeries

    R = 6
    for n in range(2, 9):
        rising = TruncatedSeries("z", R, [binom(n, j + 1) for j in range(R + 1)])
        shift = generalized_binomial_series(Fr(-(n - 1), 2), R)
        series = rising * shift / n
        for i in range(R + 1):
            assert p_coefficient(i).eval(n) == series.coefficient(i), (n, i)


def test_binomial_moments_small():
    bm = invmaj.binomial_moments(3, 4)
    assert bm.entries[0] == 1 and bm.entries[1] == 0
    assert bm.entries[2] == Fr(11, 24)
    for n in range(1, 9):
        _, var = invmaj.mean_variance(n)
        assert invmaj.binomial_moments(n, 2).entries[2] == var / 2
    with pytest.raises(ValueError):
        invmaj.binomial_moments(5, -1)


def test_central_moments_match_oracle():
    from momentforge.moment_algebra import raw_to_central
    from momentforge.oracle import histogram_moments

    for n in range(2, 8):
        hist = enumerate_permutations(n).marginal_inv()
        raw = histogram_moments(hist, 6)
        expect = raw_to_central(raw, raw.entries[1])
        got = invmaj.central_moments(n, 6)
        assert tuple(got.entries) == tuple(expect.entries), n


def test_binomial_moment_leading_ratio():
    # B_{2r}(n) ~ n^{3r}/(r! 2^{3r} 3^{2r}) with the 1/n correction of the
    # second-order expansion
    bm = invmaj.binomial_moments(400, 6)
    for r in (1, 2, 3):
        ratio = bm.entries[2 * r] * math.factorial(r) * 2 ** (3 * r) * 3 ** (2 * r) / Fr(400) ** (3 * r)
        target = 1 + Fr(3 * r * (31 - 6 * r), 50 * 400)
        assert abs(ratio / target - 1) < Fr(1, 1000), r


def _recurrence_rows(n_max: int, r_max: int) -> list[list[Fr]]:
    """Reference: [B_0(m), ..., B_{r_max}(m)] for m = 1..n_max, stepped once per m."""
    ps = [p_coefficient(s) for s in range(r_max + 1)]
    current = [Fr(1)] + [Fr(0)] * r_max
    rows = [current]
    for m in range(2, n_max + 1):
        pvals = [p.eval(m) for p in ps]
        nxt = list(current)
        for r in range(2, r_max + 1):
            delta = Fr(0)
            for s in range(2, r + 1):
                delta += pvals[s] * current[r - s]
            nxt[r] = current[r] + delta
        current = nxt
        rows.append(current)
    return rows


def test_polynomial_route_matches_recurrence():
    rows = _recurrence_rows(60, 12)
    for r_max in range(13):
        for n in range(1, 61):
            assert invmaj.binomial_moments(n, r_max).entries == tuple(rows[n - 1][: r_max + 1]), (n, r_max)
    assert invmaj.binomial_moments(2000, 12).entries == tuple(_recurrence_rows(2000, 12)[-1])


def test_cumulant_route_matches_recurrence_at_order_20():
    rows = _recurrence_rows(200, 20)
    for n in (1, 2, 3, 33, 200):
        assert invmaj.binomial_moments(n, 20).entries == tuple(rows[n - 1]), n


def _bernoulli(count: int) -> list[Fr]:
    """B_0, ..., B_{count-1} from sum_{k<=m} C(m+1, k) B_k = 0."""
    b = [Fr(1)]
    for m in range(1, count):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def test_binomial_moments_at_large_n_match_independent_uniforms():
    # inv = sum_{i<=n} U_i with U_i uniform on {0, ..., i-1}, independent; for
    # k >= 2 the cumulant of U_i is B_k (i^k - 1) / k, zero for odd k
    n, r_max = 10**5, 12
    bern = _bernoulli(r_max + 1)
    kappa = [Fr(0)] * (r_max + 1)  # about the mean: kappa_1 = 0
    for k in range(2, r_max + 1, 2):
        kappa[k] = bern[k] * (sum(i**k for i in range(1, n + 1)) - n) / k
    central = [Fr(1)]
    for j in range(1, r_max + 1):
        central.append(sum(math.comb(j - 1, k - 1) * kappa[k] * central[j - k] for k in range(1, j + 1)))
    assert invmaj.central_moments(n, r_max).entries == tuple(central)


def test_maj_table_and_pgf():
    assert maj_rows(1) == [[1]]
    h3 = maj_rows(4)[-1]  # H_3(q) = F(4, 4)
    assert h3 == [1, 2, 2, 1]
    assert sum(h3) == 6
    for n in range(1, 10):
        assert maj_pgf(n) == invmaj.pgf(n)  # MacMahon equidistribution


def test_normality_report_deviation_decays_like_1_over_n():
    # m_4 = 3(1 - 18/(25 n) + O(1/n^2)): deviations shrink ~1/n and m_4 < 3
    from momentforge.moment_algebra import normality_report, normalized_moments

    grid = [(n, invmaj.central_moments(n, 4)) for n in (10, 50, 250)]
    rows, verdicts = normality_report(grid, 4)
    assert verdicts[4] is True
    devs = [float(deviation) for r, n, m_r, target, deviation in rows if r == 4]
    assert devs[0] > devs[1] > devs[2]
    ratio = devs[1] / devs[2]
    assert 4.0 < ratio < 6.0  # ~5 for a 1/n law between n=50 and n=250
    m4 = normalized_moments(grid[2][1])[4]
    assert m4 < 3  # the 1/n correction is negative, per the expansion's sign


def test_numeric_order_guard_refuses_before_any_moment_is_built(monkeypatch):
    from momentforge.errors import SizeGuardError

    built = []
    real = invmaj._power_sum
    monkeypatch.setattr(invmaj, "_power_sum", lambda k, n: built.append(k) or real(k, n))
    # r^3 (1000 + b^1.6) with b = 4, half the bits of sigma^2 = 49/3 at n = 8
    assert len(invmaj.central_moments(8, 390).entries) == 391
    built.clear()
    with pytest.raises(SizeGuardError, match="NUMERIC_ORDER_GUARD = "):
        invmaj.central_moments(8, 391)
    assert built == []  # charged from sigma^2, before kappa_2


def test_mgf_deviation_decreases():
    grid = [Fr(x, 2) for x in range(-4, 5)]
    sups = [invmaj.mgf_deviation(n, grid)[0] for n in (5, 50)]
    assert sups[1] < sups[0]
    sup0, rows = invmaj.mgf_deviation(10, [0])
    assert sup0 == 0 and rows[0][1] == 0


def _sinh_log_deviation(n, t_values, dps):
    """Reference: G_n(e^{2u}) = (1/n!) prod_i sinh(i u)/sinh(u), summed in logs."""
    def pgf_at():
        logfact = sum(mpmath.log(mpmath.mpf(i)) for i in range(2, n + 1))

        def at(u):
            logphi = -logfact - n * mpmath.log(mpmath.sinh(u))
            for i in range(1, n + 1):
                logphi += mpmath.log(mpmath.sinh(i * u))
            return mpmath.e**logphi

        return at

    return common.mgf_deviation(invmaj.mean_variance(n)[1], n, pgf_at, t_values, dps)


def _printed(sup, rows):
    return mpmath.nstr(sup, 17), [(mpmath.nstr(t, 17), mpmath.nstr(d, 17)) for t, d in rows]


MGF_GRIDS = [(Fr(-2), Fr(2), 17), (Fr(-1, 1000), Fr(1, 1000), 9), (Fr(-6), Fr(6), 9)]


@pytest.mark.parametrize("dps", [50, 120])
@pytest.mark.parametrize("lo, hi, steps", MGF_GRIDS)
def test_mgf_partial_sums_print_as_the_sinh_log_product(lo, hi, steps, dps):
    grid = common.TGrid(lo, hi, steps)
    for n in [*range(2, 41), 400, 2000]:
        got = _printed(*invmaj.mgf_deviation(n, grid, dps))
        assert got == _printed(*_sinh_log_deviation(n, grid, dps)), n


def test_mgf_prints_as_the_sinh_log_product_at_the_largest_n_served():
    # n = 23512 is the last n MGF_GUARD serves at 17 steps; a running product
    # that is never renormalised grows to log2(n!) bits, about 300 000
    n, grid = 23512, [Fr(-2), Fr(1, 2), Fr(6)]
    assert _printed(*invmaj.mgf_deviation(n, grid)) == _printed(*_sinh_log_deviation(n, grid, 50))


def test_mgf_prints_as_the_sinh_log_product_at_the_highest_precision_served():
    # 268 digits is the highest precision MGF_GUARD serves at n = 400 and 17 steps
    grid = common.TGrid(Fr(-2), Fr(2), 17)
    assert _printed(*invmaj.mgf_deviation(400, grid, 268)) == _printed(*_sinh_log_deviation(400, grid, 268))


def test_mgf_matches_the_mahonian_row():
    # G_n(e^{t/sigma}) = q^{-n(n-1)/4} sum_d row[d] q^d / n! with q = e^{t/sigma}
    grid = [*common.TGrid(Fr(-2), Fr(2), 17), *common.TGrid(Fr(-6), Fr(6), 9)]
    for n in range(2, 16):
        row = invmaj._mahonian_row(n)
        _, rows = invmaj.mgf_deviation(n, grid, 100)
        with mpmath.workdps(100):
            var = invmaj.mean_variance(n)[1]
            sigma = mpmath.sqrt(mpmath.mpf(var.numerator) / var.denominator)
            for t, got in rows:
                q = mpmath.exp(t / sigma)
                phi = sum(c * q**d for d, c in enumerate(row)) / (math.factorial(n) * q ** (Fr(n * (n - 1), 4)))
                want = abs(phi - mpmath.exp(t * t / 2))
                if want == 0:
                    assert got == 0, (n, t)
                else:
                    assert abs(got / want - 1) < mpmath.mpf(10) ** -40, (n, t)


def test_mgf_is_real_below_zero(monkeypatch):
    routes = []
    real_loop = common.mgf_deviation

    def spy(variance, evaluations, pgf_at, t_values, dps):
        routes.append(pgf_at)
        return real_loop(variance, evaluations, pgf_at, t_values, dps)

    monkeypatch.setattr(common, "mgf_deviation", spy)
    for n in (2, 3, 50, 400):
        _, rows = invmaj.mgf_deviation(n, [Fr(-2), Fr(-1, 1000), Fr(-6)])
        assert all(type(dev) is mpmath.mpf for _, dev in rows), n
        with mpmath.workdps(50):
            at = routes[-1]()
            assert all(type(at(mpmath.mpf(u))) is mpmath.mpf for u in (-3, "-0.25", "-1e-9")), n


def test_mgf_needs_n_at_least_two():
    with pytest.raises(ValueError):
        invmaj.mgf_deviation(1, [1])


def test_mgf_guard_weighs_precision():
    from momentforge.errors import SizeGuardError
    from momentforge.families.common import mgf_digits

    # (route evaluations per t, steps, digits): the last served, the first refused
    edges = [
        ((11756, 17, 50), (11757, 17, 50)),  # invmaj n = 23512 and 23513 at the default precision
        ((400, 17, 268), (400, 17, 269)),  # the benchmark job's size, highest precision
        ((0, 17, 1917), (0, 17, 1918)),  # board1n
        ((0, 25000, 50), (0, 25001, 50)),
    ]
    for served, refused in edges:
        assert mgf_digits(*served) == served[2]
        with pytest.raises(SizeGuardError, match="MGF_GUARD"):
            mgf_digits(*refused)
    assert mgf_digits(400, 17, 10) == 50  # never below 50 digits


def test_mgf_weighs_an_invmaj_point_as_half_n_evaluations(monkeypatch):
    # ceil(n/2) overstates the fixed-point loop; it is kept so MGF_GUARD serves the same requests
    weighed = []
    monkeypatch.setattr(common, "mgf_deviation", lambda variance, evaluations, *rest: weighed.append(evaluations))
    for n in (2, 3, 23512, 23513):
        invmaj.mgf_deviation(n, [1])
    assert weighed == [1, 2, 11756, 11757]
