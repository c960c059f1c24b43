import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge.errors import FitVerificationError, UnderdeterminedFitError
from momentforge.families import invmaj, schur
from momentforge.fitter import FitSpec, fit_quasi_polynomial
from momentforge.poly_series import Polynomial, QuasiPolynomial
import reference
from reference import board1n_binomial_moments_symbolic, first_moment_quasi, fit_leading_term, interpolate

N = Polynomial.variable("n")


def test_constant_data_gives_degree_zero_branches():
    samples = [(n, Fr(7, 3)) for n in range(1, 50)]
    res = fit_quasi_polynomial(FitSpec(period=12, degree=0, samples=samples))
    assert res.quasi.period == 1  # canonicalized
    assert res.quasi.branches[0] == Fr(7, 3)


def test_fit_is_exact_on_all_inputs():
    target = QuasiPolynomial(2, [N * N / 7, N - 4])
    samples = [(n, target.eval(n)) for n in range(1, 15)]
    res = fit_quasi_polynomial(FitSpec(period=2, degree=2, samples=samples))
    for n, v in samples:
        assert res.quasi.eval(n) == v


def test_schur_first_moment_fit_c3():
    samples = [(n, schur.first_moment(n, 3)) for n in range(1, 21)]
    res = fit_quasi_polynomial(FitSpec(period=2, degree=2, samples=samples))
    assert res.quasi == first_moment_quasi(3)
    assert res.provenance["canonical_period"] == 2
    assert res.provenance["sample_range"] == [1, 20]


def test_underdetermined_rejected():
    samples = [(n, Fr(n)) for n in range(1, 8)]
    with pytest.raises(UnderdeterminedFitError):
        fit_quasi_polynomial(FitSpec(period=2, degree=3, samples=samples))


def test_verification_mismatch_reports_class_and_point():
    samples = [(n, Fr(n * n)) for n in range(1, 13)]
    samples[-1] = (12, Fr(145))  # corrupt the last held-out point
    with pytest.raises(FitVerificationError) as err:
        fit_quasi_polynomial(FitSpec(period=2, degree=2, samples=samples, verify_count=2))
    assert err.value.residue == 0
    assert err.value.point == 12


def _random_target(rng, period, degree):
    return QuasiPolynomial(period, [
        Polynomial("n", [Fr(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(degree + 1)])
        for _ in range(period)
    ])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    period=st.integers(min_value=1, max_value=12),
    degree=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_roundtrip_random_quasi_polynomials(period, degree, seed):
    target = _random_target(random.Random(seed), period, degree)
    need = period * (degree + 1 + 3)
    samples = [(n, target.eval(n)) for n in range(1, need + period + 1)]
    res = fit_quasi_polynomial(FitSpec(period=period, degree=degree, samples=samples))
    assert res.quasi == target
    for n, v in samples:
        assert res.quasi.eval(n) == v


def test_interpolate_through_unordered_unequal_nodes():
    # the divided-difference table must not assume the ascending, equally spaced nodes a fit passes
    p = N**3 / 7 - 2 * N + Fr(5, 3)
    q = interpolate([(x, p.eval(x)) for x in (9, -4, 0, 2, 31)])
    assert q == p
    assert q.to_text() == "1/7*n^3 - 2*n + 5/3"
    assert interpolate([(5, Fr(3))]) == Polynomial.const("n", 3)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    period=st.integers(min_value=1, max_value=12),
    degree=st.integers(min_value=0, max_value=6),
    start=st.integers(min_value=0, max_value=20),
    verify=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_fit_matches_the_divided_difference_reference(period, degree, start, verify, seed):
    rng = random.Random(seed)
    target = _random_target(rng, period, degree)
    samples = [(n, target.eval(n)) for n in range(start, start + period * (degree + 1 + verify))]
    spec = FitSpec(period=period, degree=degree, samples=samples, verify_count=verify)
    assert fit_quasi_polynomial(spec).quasi == reference.fit_quasi_polynomial(spec) == target

    # one node or held-out point off by a random nonzero rational: the same refusal on both paths
    at = rng.randrange(len(samples))
    n, v = samples[at]
    samples[at] = (n, v + Fr(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 7)))
    spec = FitSpec(period=period, degree=degree, samples=samples, verify_count=verify)
    with pytest.raises(FitVerificationError) as got:
        fit_quasi_polynomial(spec)
    with pytest.raises(FitVerificationError) as want:
        reference.fit_quasi_polynomial(spec)
    fields = ("residue", "point", "expected", "actual")
    assert [getattr(got.value, f) for f in fields] == [getattr(want.value, f) for f in fields]
    assert str(got.value) == str(want.value)


def test_leading_term_exact_polynomial():
    pts = [(n, Fr(3 * n**2 + 5 * n - 1)) for n in (10, 20, 30, 40)]
    res = fit_leading_term(pts, 2)
    assert res.estimate == 3
    assert res.converged


def test_leading_term_inversions_b2():
    pts = [(n, invmaj.binomial_moments(n, 2).entries[2]) for n in (50, 60, 70, 80)]
    res = fit_leading_term(pts, 3)
    assert res.estimate == Fr(1, 72)


def test_leading_term_board_b2():
    b2 = board1n_binomial_moments_symbolic(2).entries[2]
    pts = [(n, b2.eval(n)) for n in (10, 20, 30)]
    res = fit_leading_term(pts, 1)
    assert res.estimate == Fr(1, 8)


def test_leading_term_flags_nonconvergent_noise():
    rng = random.Random(5)
    pts = [(n, Fr(rng.randrange(1, 10**6))) for n in range(20, 27)]
    res = fit_leading_term(pts, 0)
    assert not res.converged


def test_leading_term_needs_three_points():
    with pytest.raises(ValueError):
        fit_leading_term([(10, Fr(1)), (20, Fr(2))], 1)


def test_fitspec_validation():
    with pytest.raises(ValueError):
        FitSpec(period=0, degree=1, samples=((1, Fr(1)),))
    with pytest.raises(ValueError):
        FitSpec(period=1, degree=1, samples=((1, Fr(1)), (1, Fr(2))))
    with pytest.raises(ValueError):
        FitSpec(period=1, degree=1, samples=((1, Fr(1)),), verify_count=1)
    # a class must be consecutive points of its progression, each once
    with pytest.raises(ValueError, match=r"residue class 1 \(mod 2\) goes from n=3 to n=3, not one step"):
        FitSpec(period=2, degree=0, samples=((1, Fr(1)), (2, Fr(1)), (3, Fr(1)), (3, Fr(1))))
    with pytest.raises(ValueError, match=r"residue class 1 \(mod 2\) goes from n=1 to n=5, not one step"):
        FitSpec(period=2, degree=0, samples=((1, Fr(1)), (2, Fr(1)), (5, Fr(1))))
    with pytest.raises(ValueError, match=r"residue class 0 \(mod 1\) goes from n=1 to n=3, not one step"):
        FitSpec(period=1, degree=1, samples=((1, Fr(1)), (3, Fr(2)), (4, Fr(3))))
    # the classes need not start at the same place, nor cover the same stretch
    assert FitSpec(period=2, degree=0, samples=((7, Fr(1)), (2, Fr(1)), (4, Fr(1)), (9, Fr(1)))).period == 2
