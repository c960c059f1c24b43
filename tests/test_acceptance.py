"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  All tolerances are pinned here, straight from the criteria, except
the inversion MGF bound of criterion 10, which is derived in the test (see
the note there).
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as Fr

import mpmath

from momentforge.exact_core import binomial, falling_factorial, stirling1_signed, stirling2
from momentforge.families import FAMILIES, boolean, domino, invmaj, moment_vector, schur
from momentforge.families.common import eval_at_n
from momentforge.fitter import FitSpec, fit_quasi_polynomial
from momentforge.moment_algebra import (
    MomentVector,
    binomial_to_raw,
    raw_to_binomial,
    raw_to_central,
)
from momentforge.oracle import (
    enumerate_boards,
    enumerate_boolean,
    enumerate_permutations,
    enumerate_schur,
    histogram_moments,
    merge_histograms,
)
from momentforge.poly_series import Polynomial, TruncatedSeries
from reference import (
    board1n_binomial_moments_symbolic,
    board1n_p_series,
    exp_series,
    fit_leading_term,
    log_series,
    maj_pgf,
    marginal_maj,
    p_coefficient,
    p_series_k0,
)

N = Polynomial.variable("n")
W = Polynomial.variable("W")
MU = Polynomial.variable("mu")


@contextmanager
def criterion(num: int, summary: str):
    started = time.monotonic()
    try:
        yield
    except BaseException as exc:
        first = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        print(f"\n[FAIL] criterion {num:2d}: {summary} -- {first}", flush=True)
        raise
    elapsed = time.monotonic() - started
    print(f"\n[PASS] criterion {num:2d}: {summary} ({elapsed:.1f}s)", flush=True)


def test_criterion_01_schur_first_moment():
    with criterion(1, "Schur E[X] closed forms equal oracle means (n<=12 c=2, n<=7 c=3)"):
        started = time.monotonic()
        for n in range(1, 13):
            assert schur.first_moment(n, 2) == enumerate_schur(n, 2).mean(), n
        for n in range(1, 8):
            assert schur.first_moment(n, 3) == enumerate_schur(n, 3).mean(), n
        assert time.monotonic() - started < 30, "runtime budget 30 s exceeded"


def test_criterion_02_schur_second_moment_and_fit():
    with criterion(2, "Schur E[X^2] equals oracle; period-12 fit reproduces printed branch"):
        started = time.monotonic()
        for n in range(1, 13):
            oracle_m2 = histogram_moments(enumerate_schur(n, 2), 2).entries[2]
            assert schur.second_moment(n, 2) == oracle_m2, n
        for n in range(1, 8):
            oracle_m2 = histogram_moments(enumerate_schur(n, 3), 2).entries[2]
            assert schur.second_moment(n, 3) == oracle_m2, n

        data = schur.second_moment_grid(range(13, 151), 2)
        res = fit_quasi_polynomial(FitSpec(period=12, degree=4, samples=tuple(data)))
        c = 2
        printed = (N - 1) * (
            24 * c**3 - 76 * c - 27 * N + 65 - 9 * N * N + 12 * c * N * N
            + 24 * c * c * N + 3 * N**3 - 16 * c * c
        ) / (48 * c**4)
        assert res.quasi.branch_for(13) == printed
        assert time.monotonic() - started < 120, "runtime budget 2 min exceeded"


def test_criterion_03_inversions_pgf_and_macmahon():
    with criterion(3, "inversion PGF, mu, sigma^2, and MacMahon equidistribution (n<=8)"):
        for n in range(1, 9):
            joint = enumerate_permutations(n)
            hist = joint.marginal_inv()
            assert invmaj.pgf(n) == hist.pgf(), n
            mu, var = invmaj.mean_variance(n)
            assert mu == hist.mean() and var == hist.variance(), n
            assert joint.marginal_inv().counts == marginal_maj(joint).counts, n
            assert maj_pgf(n) == hist.pgf(), n


def test_criterion_04_p_series_expansions():
    with criterion(4, "P(n,z) printed coefficients: inversions, boolean k=0, 1-by-n board"):
        # inversions: all five printed coefficients through z^5
        assert p_coefficient(0) == 1
        assert p_coefficient(2) == (N - 1) * (N + 1) / 24
        assert p_coefficient(3) == -(N - 1) * (N + 1) / 24
        assert p_coefficient(4) == (N - 1) * (N + 1) * (N * N + 71) / 1920
        assert p_coefficient(5) == -(N - 1) * (N + 1) * (N * N + 31) / 960
        # boolean k=0: z^2..z^5 as polynomials in 2^n
        ps = p_series_k0(5)
        half_W = Polynomial("W", (0, Fr(1, 2)))  # w = 2^(n-1) = W/2
        as_W = [cf.eval(half_W) if isinstance(cf, Polynomial) else cf for cf in ps.coeffs]
        assert as_W[2] == W / 16
        assert as_W[3] == -W / 16
        assert as_W[4] == W * W / 512 + 7 * W / 128
        assert as_W[5] == -(W * W / 256 + 3 * W / 64)
        # 1-by-n board kernel: 1, 1/8, -1/8, 15/128, -7/64
        pb = board1n_p_series(5)
        assert tuple(pb.coeffs) == (Fr(1), Fr(0), Fr(1, 8), Fr(-1, 8), Fr(15, 128), Fr(-7, 64))


def test_criterion_05_inversion_binomial_moments():
    with criterion(5, "B_r recurrence: seeds, variance halves, Theorem-1 ratio at n=1000"):
        started = time.monotonic()
        for n in range(1, 9):
            hist = enumerate_permutations(n).marginal_inv()
            bm = invmaj.binomial_moments(n, 2)
            assert bm.entries[0] == 1 and bm.entries[1] == 0
            assert bm.entries[2] == hist.variance() / 2, n
        big = invmaj.binomial_moments(1000, 6)
        for r in (1, 2, 3):
            ratio = (
                big.entries[2 * r]
                * math.factorial(r) * 2 ** (3 * r) * 3 ** (2 * r)
                / Fr(1000) ** (3 * r)
            )
            target = 1 + Fr(3 * r * (31 - 6 * r), 50 * 1000)
            assert abs(ratio / target - 1) < Fr(1, 100), r
        assert time.monotonic() - started < 60, "runtime budget 1 min exceeded"


def test_criterion_06_boolean_k0_closed_forms():
    with criterion(6, "boolean k=0 raw (r<=4) and central (2,4,6,8) printed + oracle"):
        raw = FAMILIES["boolean"].closed_forms("raw", 4, {"n": 1, "k": 0})
        assert raw[1] == W / 2
        assert raw[2] == W * (W + 1) / 4
        assert raw[3] == W * W * (W + 3) / 8
        assert raw[4] == W * (W * W + 5 * W - 2) * (W + 1) / 16
        central = FAMILIES["boolean"].closed_forms("central", 8, {"n": 1, "k": 0})
        assert central[2] == W / 4
        assert central[4] == (3 * W - 2) * W / 16
        assert central[6] == W * (15 * W * W - 30 * W + 16) / 64
        assert central[8] == W * (105 * W**3 - 420 * W * W + 588 * W - 272) / 256
        assert all(central[r].is_zero() for r in (1, 3, 5, 7))
        for n in range(1, 5):
            mv = histogram_moments(enumerate_boolean(n, 0), 8)
            oc = raw_to_central(mv, mv.entries[1])
            for r in range(5):
                assert eval_at_n(raw[r], n) == mv.entries[r], (n, r)
            for r in (2, 4, 6, 8):
                assert eval_at_n(central[r], n) == oc.entries[r], (n, r)


def test_criterion_07_boolean_identities():
    with criterion(7, "central-coefficient identities for all r <= 10"):
        # the coefficients [W^(r-t)] of the served central moments
        central = FAMILIES["boolean"].closed_forms("central", 10, {"n": 1, "k": 0})
        for r in range(11):
            for t in range(r + 1):
                value = central[r].coefficient(r - t)
                if r % 2 == 1:
                    assert value == 0, (r, t)
                elif t < r // 2:
                    assert value == 0, (r, t)
                elif t == r // 2:
                    k = r // 2
                    assert value == Fr(math.factorial(2 * k), 8**k * math.factorial(k)), (r, t)


def test_criterion_08_boolean_higher_k():
    with criterion(8, "boolean k>=1 closed forms printed + oracle; F_1..F_3 PGFs"):
        assert boolean.first_moment_k(1) == Polynomial("W", (0, N / 8))
        assert boolean.second_moment_k(1) == Polynomial("W", (0, N * (4 * N + 2) / 64, N * N / 64))
        assert boolean.variance_k(1) == Polynomial("W", (0, N * (2 * N + 1) / 32))
        d2 = Fr(2**14)
        assert boolean.second_moment_k(2) == Polynomial(
            "W", (0, 8 * N * (N - 1) * (2 * N * N + 2 * N + 3) / d2, (N * (N - 1)) ** 2 / d2)
        )
        assert boolean.variance_k(2) == Polynomial(
            "W", (0, N * (N - 1) * (2 * N * N + 2 * N + 3) / Fr(2**11))
        )
        d3 = Fr(2**24 * 9)
        f3 = N * (N - 1) * (N - 2)
        assert boolean.second_moment_k(3) == Polynomial(
            "W", (0, 16 * f3 * (4 * N**3 + 6 * N * N + 80 * N + 363) / d3, f3 * f3 / d3)
        )
        for k in (1, 2):
            mv = histogram_moments(enumerate_boolean(4, k), 2)
            oc = raw_to_central(mv, mv.entries[1])
            assert eval_at_n(boolean.first_moment_k(k), 4) == mv.entries[1], k
            assert eval_at_n(boolean.second_moment_k(k), 4) == mv.entries[2], k
            assert eval_at_n(boolean.variance_k(k), 4) == oc.entries[2], k
        raw3 = [Polynomial("W", (1,)), boolean.first_moment_k(1), boolean.second_moment_k(1), boolean.third_moment_k1()]
        central3 = raw_to_central(MomentVector("raw", raw3), boolean.first_moment_k(1)).entries[3]
        assert central3 == Polynomial("W", (0, 3 * N**3 / 64))
        for n in range(1, 5):
            mv = histogram_moments(enumerate_boolean(n, 1), 3)
            oc = raw_to_central(mv, mv.entries[1])
            assert eval_at_n(boolean.third_moment_k1(), n) == mv.entries[3], n
            assert eval_at_n(central3, n) == oc.entries[3], n
            assert moment_vector("boolean", "central", 3, {"n": n, "k": 1}).entries[3] == oc.entries[3], n
        # printed F_1, F_2, F_3
        assert enumerate_boolean(1, 1).pgf().coeffs == (Fr(3, 4), Fr(1, 4))
        assert enumerate_boolean(2, 1).pgf().coeffs == (
            Fr(7, 16), Fr(1, 4), Fr(1, 4), Fr(0), Fr(1, 16),
        )
        printed_f3 = [35, 36, 54, 40, 30, 24, 16, 12, 0, 8, 0, 0, 1]
        assert enumerate_boolean(3, 1).pgf().coeffs == tuple(Fr(v, 256) for v in printed_f3)


def test_criterion_09_domino():
    with criterion(9, "domino tables r<=3, raw moments vs oracle (mn<=16, r<=6), central, board1n"):
        # printed tables, three of them
        tables = {
            1: {
                1: [0, 2, 8, 24, 64, 160, 384, 896],
                2: [2, 32, 224, 1280, 6656, 32768, 155648, 720896],
                3: [8, 224, 3072, 34816, 360448],
                4: [24, 1280, 34816, 786432],
            },
            2: {
                1: [0, 2, 12, 48, 160, 480, 1344, 3584],
                2: [2, 80, 896, 7040, 46592, 278528, 1556480, 8290304],
                3: [12, 896, 19968, 313344, 4145152],
                4: [48, 7040, 313344, 9830400],
            },
            3: {
                1: [0, 2, 20, 108, 448, 1600, 5184, 15680],
                2: [2, 224, 3920, 41600, 346112, 2490368, 16265216, 99123200],
                3: [20, 3920, 138240, 2959360, 49561600],
                4: [108, 41600, 2959360, 127401984],
            },
        }
        for r, rows in tables.items():
            for m, row in rows.items():
                for idx, expected in enumerate(row):
                    n = idx + 1
                    scaled = moment_vector("domino", "raw", r, {"m": m, "n": n}).entries[r] * 2 ** (m * n)
                    assert scaled == expected, (r, m, n)

        # central moments match the printed mu-polynomials
        central = FAMILIES["domino"].closed_forms("central", 6, {"m": 1, "n": 2})
        assert central[2] == MU / 2
        assert central[3].is_zero() and central[5].is_zero()
        assert central[4] == MU * (3 * MU - 1) / 4
        assert central[6] == MU * (15 * MU * MU - 15 * MU + 4) / 8

        # board1n binomial moments match the printed G_n(1+z) coefficients
        bm = board1n_binomial_moments_symbolic(5)
        assert bm.entries[2] == (N - 1) / 8
        assert bm.entries[3] == -(N - 1) / 8
        assert bm.entries[4] == (N - 1) * (N + 13) / 128
        assert bm.entries[5] == -(N - 1) * (N + 5) / 64

        # the served raw moments vs oracle for every board with mn <= 16, r <= 6.
        # NOTE: the mu-only Stirling sum sum_i {r brace i} (A)_i / 2^i is
        # exact only for r <= 3 or min(m, n) = 1.  On any board with
        # m, n >= 2 the four slots around a lattice square are jointly
        # same-number with probability 1/2^3, not 1/2^4, so E[X^r] for
        # r >= 4 is not a function of mu alone: the sum gives 57 wrong
        # (board, order) points here, the first 2x2 at r = 4 (85/2 against
        # the oracle's 44).  The moments therefore use the mu-polynomials
        # only on their domain and the integer transfer matrix elsewhere;
        # this clause checks both routes against exhaustive enumeration.
        mismatches = []
        for m in range(1, 17):
            for n in range(1, 17):
                if m * n > 16:
                    continue
                mv = histogram_moments(enumerate_boards(m, n), 6)
                for r in range(7):
                    formula = moment_vector("domino", "raw", r, {"m": m, "n": n}).entries[r]
                    if formula != mv.entries[r]:
                        mismatches.append((m, n, r, formula, mv.entries[r]))
        assert not mismatches, (
            f"the domino raw moments deviate from the oracle on {len(mismatches)} "
            f"(board, order) points; first: "
            f"m={mismatches[0][0]} n={mismatches[0][1]} r={mismatches[0][2]} "
            f"formula={mismatches[0][3]} oracle={mismatches[0][4]}"
        )


def test_criterion_10_mgf_limits():
    with criterion(10, "MGF limits: board < 0.01 at n=1e4, inversions within kappa_4 bound at n=500, decreasing"):
        started = time.monotonic()
        grid = [Fr(i, 4) for i in range(-8, 9)]  # t in [-2, 2]

        board_sups = [domino.mgf_deviation_1n(n, grid)[0] for n in (100, 1000, 10000)]
        assert board_sups[0] > board_sups[1] > board_sups[2], "board grid not decreasing"
        assert board_sups[2] < mpmath.mpf("0.01"), f"board sup at n=1e4: {board_sups[2]}"

        inv_sups = [invmaj.mgf_deviation(n, grid)[0] for n in (5, 50, 500)]
        assert inv_sups[0] > inv_sups[1] > inv_sups[2], "inversion grid not decreasing"
        assert time.monotonic() - started < 30, "runtime budget 30 s exceeded"
        # NOTE: the inversion number is a sum of independent uniforms on
        # {0..k-1}, k = 1..n, with cumulants
        # kappa_{2j} = B_{2j} sum_k (k^{2j} - 1) / (2j).  The standardized MGF
        # is e^{t^2/2} exp(lambda_4 + lambda_6 + ...) with
        # lambda_{2j} = kappa_{2j} t^{2j} / ((2j)! sigma^{2j}); lambda_4 < 0 and
        # the later terms alternate and shrink, so 1 - e^x < -x bounds the
        # deviation by its leading term e^{t^2/2} |lambda_4|, largest at
        # t = +-2: e^2 (2/3) |kappa_4| / sigma^4 = 0.02126 at n = 500.  A flat
        # 0.02 cannot hold there: the true sup is 0.021160 and first drops
        # below 0.02 at n = 530 (n = 529 gives 0.0200064).
        n = 500
        ks = range(1, n + 1)
        kappa = {
            2 * j: Fr(*mpmath.bernfrac(2 * j)) * sum(k ** (2 * j) - 1 for k in ks) / (2 * j)
            for j in range(1, 6)
        }
        var = kappa[2]
        ratio = -kappa[4] / var**2
        with mpmath.workdps(50):
            bound = mpmath.e**2 * 2 * mpmath.mpf(ratio.numerator) / (3 * ratio.denominator)
            assert inv_sups[2] < bound, (
                f"inversion sup-deviation at n=500 over t in [-2,2] is "
                f"{mpmath.nstr(inv_sups[2], 8)} >= e^2 (2/3) |kappa_4| / sigma^4 = "
                f"{mpmath.nstr(bound, 8)}"
            )
            # independent evaluation at t = 2 from the cumulants through kappa_10
            t = 2
            log_ratio = sum(
                mpmath.mpf(kappa[2 * j].numerator) / kappa[2 * j].denominator
                * mpmath.mpf(t) ** (2 * j) / mpmath.factorial(2 * j)
                / (mpmath.mpf(var.numerator) / var.denominator) ** j
                for j in range(2, 6)
            )
            independent = mpmath.e ** (t * t / 2) * abs(1 - mpmath.e**log_ratio)
            assert abs(inv_sups[2] / independent - 1) < mpmath.mpf("1e-8"), (
                f"inversion sup-deviation {mpmath.nstr(inv_sups[2], 12)} disagrees with "
                f"the cumulant evaluation {mpmath.nstr(independent, 12)}"
            )


def test_criterion_11_h_approximation():
    with criterion(11, "H_n(q): printed E[Y] lines exact; Var[Y] k=1 leading term within 2%"):
        for n in range(1, 13):
            assert boolean.h_moments(n, 0)["mean"] == Fr(2 ** (n - 1)), n
        for n in range(1, 13):
            assert boolean.h_moments(n, 1)["mean"] == Fr(n * (2**n - 1), 8), n
        for n in range(2, 13):
            printed = (
                Fr(n * (n - 1), 2)
                * (Fr(2**n) - 6 + Fr(11, 2**n) - Fr(6, 2 ** (2 * n)))
                / 64
            )
            assert boolean.h_moments(n, 2)["mean"] == printed, n

        pts = []
        for n in range(8, 13):
            var = boolean.h_moments(n, 1)["variance"]
            printed_leading = Fr(n * (2 * n + 4) * 2**n, 32)
            pts.append((n, var / printed_leading))
        res = fit_leading_term(pts, 0)
        assert abs(res.estimate - 1) < Fr(2, 100), res.estimate


def test_criterion_12_property_suites():
    with criterion(12, "property suites: Stirling, series, conversions, merge determinism"):
        rng = random.Random(20260809)

        # Stirling orthogonality through order 12
        for r in range(13):
            for t in range(13):
                s = sum(stirling2(r, j) * stirling1_signed(j, t) for j in range(r + 1))
                assert s == (1 if r == t else 0)
        x = Polynomial.variable("x")
        for r in range(13):
            acc = Polynomial("x", ())
            for i in range(r + 1):
                acc = acc + stirling2(r, i) * falling_factorial(x, i)
            assert acc == x**r

        # series round-trips on seeded random series
        R = 8
        for _ in range(25):
            a = TruncatedSeries("z", R, [Fr(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(R + 1)])
            b = TruncatedSeries("z", R, [Fr(1)] + [Fr(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(R)])
            assert (a / b) * b == a
            assert log_series(exp_series(b - 1)) == b - 1

        # moment conversion round-trips through r = 12
        for _ in range(25):
            entries = [Fr(1)] + [Fr(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(12)]
            mv = MomentVector("raw", entries)
            assert binomial_to_raw(raw_to_binomial(mv)).entries == mv.entries

        # histogram merge determinism under partitioned enumeration
        whole_schur = enumerate_schur(10, 2)
        whole_board = enumerate_boards(4, 3)
        for parts in (2, 3, 7):
            assert enumerate_schur(10, 2, parts=parts).counts == whole_schur.counts
            assert enumerate_boards(4, 3, parts=parts).counts == whole_board.counts
        pieces = [enumerate_boards(2, 2, parts=1)]
        merged = merge_histograms(pieces * 3)
        assert merged.total == 3 * 16

        # generalized binomial coefficient identity battery under seed
        for _ in range(50):
            nn = rng.randint(-12, 12)
            kk = rng.randint(0, 8)
            lhs = binomial(nn, kk) * kk * 1
            if kk >= 1:
                assert binomial(nn, kk) * kk == binomial(nn - 1, kk - 1) * nn, (nn, kk)
            assert lhs == lhs
