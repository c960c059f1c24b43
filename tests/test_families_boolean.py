import functools
import json
import math
from fractions import Fraction as Fr

import pytest

from momentforge.families import FAMILIES, boolean, moment_vector
from momentforge.families.common import eval_at_n
from momentforge.moment_algebra import MomentVector, raw_to_central
from momentforge.oracle import enumerate_boolean, histogram_moments
from momentforge.poly_series import Polynomial
from reference import central_coefficient, h_moments_by_fractions, h_moments_by_sum, p_series_k0

HALF_W = Polynomial("W", (0, Fr(1, 2)))  # w = 2^(n-1) as a polynomial in W = 2^n

W = Polynomial.variable("W")
N = Polynomial.variable("n")
w = Polynomial.variable("w")


def _forms(kind: str, r_max: int) -> list:
    """The served k = 0 closed forms of orders 0..r_max: polynomials in W, binomial ones in w."""
    return FAMILIES["boolean"].closed_forms(kind, r_max, {"n": 1, "k": 0})


class TestZeroCube:
    def test_raw_moments_printed(self):
        raw = _forms("raw", 4)
        assert raw[0] == 1
        assert raw[1] == W / 2
        assert raw[2] == W * (W + 1) / 4
        assert raw[3] == W * W * (W + 3) / 8
        assert raw[4] == W * (W * W + 5 * W - 2) * (W + 1) / 16

    def test_raw_moment_small_case(self):
        # n=1: X ~ Binomial(2, 1/2), E[X^2] = 3/2
        assert eval_at_n(_forms("raw", 2)[2], 1) == Fr(3, 2)
        assert moment_vector("boolean", "raw", 2, {"n": 1}).entries[2] == Fr(3, 2)

    def test_central_moments_printed(self):
        cm = _forms("central", 8)
        assert cm[2] == W / 4
        assert cm[4] == (3 * W - 2) * W / 16
        assert cm[6] == W * (15 * W * W - 30 * W + 16) / 64
        assert cm[8] == W * (105 * W**3 - 420 * W * W + 588 * W - 272) / 256
        assert all(cm[r].is_zero() for r in (1, 3, 5, 7))

    def test_against_oracle(self):
        for n in range(1, 5):
            mv = histogram_moments(enumerate_boolean(n, 0), 8)
            central = raw_to_central(mv, mv.entries[1])
            for r in range(9):
                assert eval_at_n(_forms("raw", 8)[r], n) == mv.entries[r], (n, r)
                assert eval_at_n(_forms("central", 8)[r], n) == central.entries[r]

    def test_p_series_printed_in_2n(self):
        ps = p_series_k0(5)
        as_W = [c.eval(HALF_W) if isinstance(c, Polynomial) else c for c in ps.coeffs]
        assert as_W[0] == 1 and as_W[1] == 0
        assert as_W[2] == W / 16
        assert as_W[3] == -W / 16
        assert as_W[4] == W * W / 512 + 7 * W / 128
        assert as_W[5] == -(W * W / 256 + 3 * W / 64)

    def test_binomial_moments_recurrence_and_leading_terms(self):
        bm = _forms("binomial", 8)
        assert bm[0] == 1 and bm[1].is_zero()
        assert bm[2] == w / 4  # = 2^n/8 = Var/2
        for r in (1, 2, 3, 4):
            e = bm[2 * r]
            assert (e.degree, e.coeffs[-1]) == (r, Fr(1, 4**r * math.factorial(r))), r
        for r in (1, 2, 3):
            # B_{2r+1} = -2^{rn}/((r-1)! 8^r) + ... = -w^r/((r-1)! 4^r) + ...
            e = bm[2 * r + 1]
            assert (e.degree, e.coeffs[-1]) == (r, Fr(-1, 4**r * math.factorial(r - 1))), r

    def test_binomial_recurrence_consistency(self):
        # G_n(1+z) coefficients = P(n,z) * G_{n-1}(1+z) with w -> w/2 rebasing
        r_max = 6
        bm = _forms("binomial", r_max)
        p = p_series_k0(r_max)
        half_w = Polynomial("w", (0, Fr(1, 2)))
        prev = [e.eval(half_w) if isinstance(e, Polynomial) else e for e in bm]
        for r in range(r_max + 1):
            acc = Polynomial("w", ())
            for s in range(r + 1):
                acc = acc + p.coefficient(s) * prev[r - s]
            assert acc == bm[r], r

    def test_binomial_vs_oracle(self):
        from momentforge.moment_algebra import binomial_to_raw

        for n in range(1, 5):
            bm = _forms("binomial", 6)
            numeric = [eval_at_n(e, n) for e in bm]
            from momentforge.moment_algebra import MomentVector

            central = binomial_to_raw(
                MomentVector("binomial", numeric, about_mean=True)
            )
            mv = histogram_moments(enumerate_boolean(n, 0), 6)
            expect = raw_to_central(mv, mv.entries[1])
            assert tuple(central.entries) == tuple(expect.entries), n


class TestIdentities:
    def test_examples(self):
        assert central_coefficient(2, 1) == Fr(1, 4)
        assert central_coefficient(4, 2) == Fr(3, 16)
        assert central_coefficient(2, 0) == 0

    def test_battery(self):
        for r in range(11):
            for t in range(r + 1):
                v = central_coefficient(r, t)
                if r % 2 == 1 or t < r // 2:
                    assert v == 0, (r, t)
                elif t == r // 2:
                    k = r // 2
                    assert v == Fr(math.factorial(2 * k), 8**k * math.factorial(k))

    def test_coefficients_rebuild_central_moments(self):
        # sum_t coeff(r, t) W^(r-t) equals the central moment polynomial
        cm = _forms("central", 24)
        for r in range(25):
            rebuilt = Polynomial("W", ())
            for t in range(r + 1):
                rebuilt = rebuilt + central_coefficient(r, t) * W ** (r - t)
            assert rebuilt == cm[r], r


class TestGeneralK:
    def test_first_moment(self):
        assert boolean.first_moment_k(0) == Polynomial("W", (0, Fr(1, 2)))
        assert boolean.first_moment_k(1) == Polynomial("W", (0, N / 8))
        assert eval_at_n(boolean.first_moment_k(1), 1) == Fr(1, 4)

    def test_second_moments_printed(self):
        assert boolean.second_moment_k(1) == Polynomial(
            "W", (0, N * (4 * N + 2) / 64, N * N / 64)
        )
        d2 = Fr(2**14)
        assert boolean.second_moment_k(2) == Polynomial(
            "W",
            (0, 8 * N * (N - 1) * (2 * N * N + 2 * N + 3) / d2, (N * (N - 1)) ** 2 / d2),
        )
        d3 = Fr(2**24 * 9)
        f3 = N * (N - 1) * (N - 2)
        assert boolean.second_moment_k(3) == Polynomial(
            "W", (0, 16 * f3 * (4 * N**3 + 6 * N * N + 80 * N + 363) / d3, f3 * f3 / d3)
        )

    def test_variances_printed(self):
        assert boolean.variance_k(0) == Polynomial("W", (0, Fr(1, 4)))
        assert boolean.variance_k(1) == Polynomial("W", (0, N * (2 * N + 1) / 32))
        assert boolean.variance_k(2) == Polynomial(
            "W", (0, N * (N - 1) * (2 * N * N + 2 * N + 3) / Fr(2**11))
        )

    def test_variance_leading_term(self):
        # L{Var} = n^{2k} 2^n / (k!^2 2^{2^{k+1}})
        for k in range(4):
            coef = boolean.variance_k(k).coefficient(1)
            deg, lead = (0, coef) if isinstance(coef, Fr) else (coef.degree, coef.coeffs[-1])
            assert deg == 2 * k
            assert lead == Fr(1, math.factorial(k) ** 2 * 2 ** (2 ** (k + 1)))

    def test_second_moment_k0_consistent(self):
        assert boolean.second_moment_k(0) == _forms("raw", 2)[2]

    def test_against_oracle(self):
        for k in (1, 2):
            for n in range(k, 5):
                mv = histogram_moments(enumerate_boolean(n, k), 2)
                central = raw_to_central(mv, mv.entries[1])
                assert eval_at_n(boolean.first_moment_k(k), n) == mv.entries[1]
                assert eval_at_n(boolean.second_moment_k(k), n) == mv.entries[2]
                assert eval_at_n(boolean.variance_k(k), n) == central.entries[2]

    def test_third_moment_k1(self):
        got = boolean.third_moment_k1()
        scale = Fr(1, 512)
        assert got == Polynomial(
            "W",
            (0, 24 * N**3 * scale, 6 * N * N * (2 * N + 1) * scale, N**3 * scale),
        )
        assert eval_at_n(got, 2) == Fr(25, 4)
        for n in range(1, 5):
            mv = histogram_moments(enumerate_boolean(n, 1), 3)
            assert eval_at_n(got, n) == mv.entries[3], n

    def test_central_third_k1(self):
        raw = [Polynomial("W", (1,)), boolean.first_moment_k(1), boolean.second_moment_k(1), boolean.third_moment_k1()]
        cm = raw_to_central(MomentVector("raw", raw), boolean.first_moment_k(1))
        assert cm.entries[3] == Polynomial("W", (0, 3 * N**3 / 64))
        for n in range(1, 5):
            mv = histogram_moments(enumerate_boolean(n, 1), 3)
            central = raw_to_central(mv, mv.entries[1])
            assert eval_at_n(cm.entries[3], n) == central.entries[3], n
            assert moment_vector("boolean", "central", 3, {"n": n, "k": 1}).entries[3] == central.entries[3], n

    @pytest.mark.parametrize("k,r_max", [(1, 3), (2, 2)])
    def test_normality_grid_builds_each_polynomial_once(self, k, r_max, monkeypatch, run):
        builders = ["first_moment_k", "second_moment_k", "_raw_moments_k"] + ["third_moment_k1"] * (k == 1)
        built = {name: 0 for name in builders}
        for name in builders:
            route = getattr(boolean, name)

            def spy(*args, _name=name, _route=getattr(route, "__wrapped__", route)):
                built[_name] += 1
                return _route(*args)

            # a cached builder gets a fresh cache around its spy
            monkeypatch.setattr(boolean, name, functools.lru_cache(spy) if hasattr(route, "cache_info") else spy)
        grid = ",".join(str(n) for n in range(k + 2, k + 8))  # six points
        proc = run("normality", "--family", "boolean", "--k", str(k), "--n-grid", grid, "--r-max", str(r_max))
        assert proc.code == 0
        assert list(built.values()) == [1] * len(builders)
        rows = json.loads(proc.out)["result"]["rows"]
        assert len(rows) == 6 * (r_max + 1)

    def test_out_of_scope_orders_rejected(self):
        with pytest.raises(ValueError, match="stop at r = 3"):
            moment_vector("boolean", "raw", 4, {"n": 3, "k": 1})
        with pytest.raises(ValueError, match="stop at r = 3"):
            moment_vector("boolean", "central", 5, {"n": 3, "k": 1})


class TestHApproximation:
    def test_probability(self):
        assert boolean.h_probability(4, 0) == 1
        assert boolean.h_probability(4, 1) == Fr(4, 16)
        assert boolean.h_probability(5, 1) == Fr(5, 32)

    def test_printed_mean_lines(self):
        for n in range(1, 10):
            assert boolean.h_moments(n, 0)["mean"] == Fr(2 ** (n - 1))
        for n in range(1, 10):
            assert boolean.h_moments(n, 1)["mean"] == Fr(n * (2**n - 1), 8)
        for n in range(2, 10):
            expected = (
                Fr(n * (n - 1), 2)
                * (Fr(2**n) - 6 + Fr(11, 2**n) - Fr(6, 2 ** (2 * n)))
                / 64
            )
            assert boolean.h_moments(n, 2)["mean"] == expected

    def test_moments_match_the_sum_over_m(self):
        for n in range(1, 9):
            for k in range(n + 1):
                moments = boolean.h_moments(n, k)
                assert moments == h_moments_by_sum(n, k), (n, k)

    def test_dyadic_moments_match_the_fraction_formulas(self):
        for n in range(1, 11):
            for k in range(n + 1):
                assert boolean.h_moments(n, k) == h_moments_by_fractions(n, k), (n, k)

    def test_k0_variance(self):
        for n in range(1, 8):
            assert boolean.h_moments(n, 0)["variance"] == Fr(2**n, 4)

    def test_polynomial_small(self):
        # k=0: H_n(q) is the exact PGF ((1+q)/2)^(2^n)
        h = boolean.h_polynomial(2, 0)
        base = Polynomial("q", (Fr(1, 2), Fr(1, 2)))
        assert h == base**4
        # moments derived from the polynomial, H'(1) and H''(1), agree with the sum route
        h1 = boolean.h_polynomial(3, 1)
        assert sum(d * c for d, c in enumerate(h1.coeffs)) == boolean.h_moments(3, 1)["mean"]
        assert sum(d * (d - 1) * c for d, c in enumerate(h1.coeffs)) == boolean.h_moments(3, 1)["second_factorial"]

    def test_guards(self):
        from momentforge.errors import SizeGuardError

        with pytest.raises(SizeGuardError):
            boolean.h_moments(15, 1)
        with pytest.raises(SizeGuardError):
            boolean.h_polynomial(10, 1)
