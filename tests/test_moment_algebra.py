import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge.exact_core import stirling1_signed, stirling2
from momentforge.families.common import bernoulli
from momentforge.moment_algebra import (
    MomentVector,
    binomial_to_raw,
    central_to_raw,
    cumulants_to_moments,
    gaussian_moment,
    normality_report,
    normalized_moments,
    raw_to_binomial,
    raw_to_central,
)
from momentforge.oracle import enumerate_permutations, histogram_moments
from momentforge.poly_series import Polynomial
from reference import moments_to_cumulants


def test_kind_validation():
    with pytest.raises(ValueError):
        MomentVector("raw", [Fr(2)])
    with pytest.raises(ValueError):
        MomentVector("central", [Fr(1), Fr(1)])
    with pytest.raises(ValueError):
        MomentVector("nope", [Fr(1)])
    MomentVector("binomial", [Fr(1), Fr(3)])  # not about the mean: entry 1 free


def test_binomial_to_raw_examples():
    var = Fr(11, 12)
    b = MomentVector("binomial", [Fr(1), Fr(0), var / 2], about_mean=True)
    m = binomial_to_raw(b)
    assert m.kind == "central"
    assert m.entries[2] == var
    b0 = MomentVector("binomial", [Fr(1)])
    assert binomial_to_raw(b0).entries[0] == 1


def test_raw_to_central_examples():
    W = Polynomial.variable("W")
    raws = MomentVector("raw", [Polynomial("W", (1,)), W / 2, W * (W + 1) / 4])
    central = raw_to_central(raws, W / 2)
    assert central.entries[1] == 0
    assert central.entries[2] == W / 4  # Var of the 0-cube count is 2^(n-2)

    point = MomentVector("raw", [Fr(1), Fr(7), Fr(49), Fr(343)])
    c = raw_to_central(point, Fr(7))
    assert c.entries[1] == 0 and c.entries[2] == 0 and c.entries[3] == 0

    # order 0 alone: no order-1 entry to check mu against
    assert raw_to_central(MomentVector("raw", [Fr(1)]), Fr(5, 2)).entries == (Fr(1),)


def test_raw_to_central_rejects_wrong_mean():
    m = MomentVector("raw", [Fr(1), Fr(3), Fr(10)])
    with pytest.raises(ValueError, match="does not match"):
        raw_to_central(m, Fr(2))


def test_gaussian_moments():
    assert gaussian_moment(0) == 1
    assert gaussian_moment(2) == 1
    assert gaussian_moment(4) == 3
    assert gaussian_moment(6) == 15
    assert gaussian_moment(7) == 0
    assert gaussian_moment(2 * 5) == Fr(3628800, 2**5 * 120)


def test_normalized_moments():
    # Gaussian-shaped central moments scaled by sigma^r stay on target
    var = Fr(9, 4)
    central = MomentVector(
        "central",
        [gaussian_moment(r) * var ** Fr(r, 2) if r % 2 == 0 else Fr(0) for r in range(7)],
    )
    ms = normalized_moments(central)
    assert ms[2] == 1 and abs(ms[4] - 3) < 1e-40 and ms[3] == 0

    with pytest.raises(ValueError):
        normalized_moments(MomentVector("central", [Fr(1), Fr(0), Fr(0)]))


def test_normalized_moment_board_example():
    # 1xn board at mu = 50: m_4 = (3 mu - 1)/mu = 2.98
    import mpmath

    mu = Fr(50)
    central = MomentVector("central", [Fr(1), Fr(0), mu / 2, Fr(0), mu * (3 * mu - 1) / 4])
    ms = normalized_moments(central)
    with mpmath.workdps(50):
        assert abs(ms[4] - mpmath.mpf(149) / 50) < mpmath.mpf("1e-45")


def test_roundtrips():
    m = MomentVector("raw", [Fr(1), Fr(3), Fr(11), Fr(45), Fr(200), Fr(950)])
    assert binomial_to_raw(raw_to_binomial(m)).entries == m.entries
    c = raw_to_central(m, Fr(3))
    assert central_to_raw(c, Fr(3)).entries == m.entries


@settings(derandomize=True, max_examples=50)
@given(st.lists(st.fractions(min_value=Fr(-50), max_value=Fr(50), max_denominator=20),
                min_size=3, max_size=12))
def test_binomial_raw_roundtrip_random(tail):
    m = MomentVector("raw", [Fr(1)] + tail)
    b = raw_to_binomial(m)
    assert binomial_to_raw(b).entries == m.entries


def _by_sums(entries, mu):
    """binomial -> power moments by Stirling numbers of the second kind, power -> binomial by the signed first kind,
    and the shift by mu by the binomial theorem: each as a sum over the entries."""
    r_max = len(entries) - 1
    raw = [sum(stirling2(r, i) * math.factorial(i) * entries[i] for i in range(r + 1)) for r in range(r_max + 1)]
    binomial = [
        sum(stirling1_signed(r, i) * entries[i] for i in range(r + 1)) / math.factorial(r) for r in range(r_max + 1)
    ]
    shifted = [sum(math.comb(r, i) * entries[i] * mu ** (r - i) for i in range(r + 1)) for r in range(r_max + 1)]
    return raw, binomial, shifted


@settings(derandomize=True, max_examples=50)
@given(st.lists(st.fractions(min_value=Fr(-50), max_value=Fr(50), max_denominator=20), min_size=0, max_size=14),
       st.fractions(min_value=Fr(-30), max_value=Fr(30), max_denominator=12))
def test_conversions_equal_their_sums(tail, mu):
    entries = [Fr(1)] + tail
    raw, binomial, shifted = _by_sums(entries, mu)
    assert list(binomial_to_raw(MomentVector("binomial", entries)).entries) == raw
    assert list(raw_to_binomial(MomentVector("raw", entries)).entries) == binomial
    central = [Fr(1), Fr(0), *tail[1:]][: len(entries)]
    assert list(central_to_raw(MomentVector("central", central), mu).entries) == _by_sums(central, mu)[2]


def test_conversions_equal_their_sums_over_polynomials():
    rng = random.Random(36)
    mu = Polynomial("mu", [Fr(1, 3), Fr(2)])
    for _ in range(3):
        entries = [Polynomial.const("mu", 1), Polynomial("mu", ())] + [
            Polynomial("mu", [Fr(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]) for _ in range(10)
        ]
        raw, binomial, shifted = _by_sums(entries, mu)
        assert list(binomial_to_raw(MomentVector("binomial", entries)).entries) == raw
        assert list(raw_to_binomial(MomentVector("central", entries)).entries) == binomial
        assert list(central_to_raw(MomentVector("central", entries), mu).entries) == shifted


@settings(derandomize=True, max_examples=50)
@given(st.lists(st.fractions(min_value=Fr(-50), max_value=Fr(50), max_denominator=20), min_size=12, max_size=12),
       st.booleans())
def test_cumulant_roundtrip_random(tail, central):
    # raw -> kappa -> raw, and central (m_1 = 0, so kappa_1 = 0) -> kappa -> central, through r = 12
    moments = [Fr(1), Fr(0) if central else tail[0], *tail[1:]]
    kappa = moments_to_cumulants(moments)
    assert kappa[0] == 0 and kappa[1] == moments[1]
    assert cumulants_to_moments(kappa) == moments


def test_cumulant_roundtrip_over_polynomials():
    rng = random.Random(2020)
    for central in (False, True):
        for _ in range(4):
            moments = [Polynomial.const("n", 1)] + [
                Polynomial("n", [Fr(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]) for _ in range(12)
            ]
            if central:
                moments[1] = Polynomial("n", ())
            kappa = moments_to_cumulants(moments)
            assert kappa[0].is_zero() and kappa[1] == moments[1]
            assert cumulants_to_moments(kappa) == moments


def test_cumulants_of_the_inversion_number_are_faulhaber():
    # from the oracle's raw moments: kappa_1 = n(n-1)/4, kappa_k = B_k (S_k(n) - n) / k for even k >= 2, else 0
    for n in range(1, 8):
        kappa = moments_to_cumulants(histogram_moments(enumerate_permutations(n).marginal_inv(), 12).entries)
        expect = [Fr(0), Fr(n * (n - 1), 4)] + [
            bernoulli(k) * (sum(i**k for i in range(1, n + 1)) - n) / k if k % 2 == 0 else 0 for k in range(2, 13)
        ]
        assert kappa == expect, n


def test_normality_report_board():
    # deviations at r=4 are exactly 1/mu for the 1-by-n board
    def central_at(n):
        mu = Fr(n - 1, 2)
        return MomentVector(
            "central", [Fr(1), Fr(0), mu / 2, Fr(0), mu * (3 * mu - 1) / 4]
        )

    grid = [(11, central_at(11)), (101, central_at(101)), (1001, central_at(1001))]
    rows, verdicts = normality_report(grid, 4)
    assert verdicts[4] is True and verdicts[3] is True
    devs = [deviation for r, n, m_r, target, deviation in rows if r == 4]
    assert [float(d) for d in devs] == [0.2, 0.02, 0.002]


def test_normality_report_needs_three_points():
    central = MomentVector("central", [Fr(1), Fr(0), Fr(1), Fr(0), Fr(3)])
    with pytest.raises(ValueError):
        normality_report([(1, central), (2, central)], 4)
