import json
import time
from fractions import Fraction as Fr

import pytest

from momentforge.families import schur
from momentforge.oracle import enumerate_schur, histogram_moments
from momentforge.poly_series import Polynomial
from reference import (
    first_moment_quasi,
    indicator_first_moment,
    schur_second_moments,
    schur_swept_second_moments,
    triples,
)


def test_triples_counts():
    ts = triples(5)
    assert [t for t in ts if len(t) == 2] == [(1, 2), (2, 4)]
    assert [t for t in ts if len(t) == 3] == [(1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 3, 5)]
    assert triples(1) == []
    ts4 = triples(4)
    assert sum(len(t) == 2 for t in ts4) == 2
    assert sum(len(t) == 3 for t in ts4) == 2


def test_triple_elements_are_sets():
    # {x, x, 2x} has two distinct elements, {x, y, x+y} with x < y three
    for t in triples(12):
        assert list(t) == sorted(set(t))
        if len(t) == 2:
            assert t[1] == 2 * t[0]
        else:
            assert t[2] == t[0] + t[1]


def test_first_moment_closed_forms():
    assert schur.first_moment(1, 2) == 0
    assert schur.first_moment(5, 2) == 2
    assert schur.first_moment(6, 2) == 3  # 6*(6-2+4)/16


def test_first_moment_vs_indicator_sum():
    for c in (2, 3):
        for n in range(1, 13):
            assert schur.first_moment(n, c) == indicator_first_moment(n, c)


def test_first_moment_quasi_polynomial():
    qp = first_moment_quasi(2)
    assert qp.period == 2
    n = Polynomial.variable("n")
    assert qp.branches[1] == (n - 1) * (n + 3) / 16
    # (k2 c + k3) / c^2 equals the parity split at both parities
    for c in (2, 3, 5, 7):
        qp = first_moment_quasi(c)
        assert all(schur.first_moment(v, c) == qp.eval(v) for v in range(1, 201)), c


def test_first_moment_matches_oracle():
    for n in range(1, 11):
        assert schur.first_moment(n, 2) == enumerate_schur(n, 2).mean()
    for n in range(1, 8):
        assert schur.first_moment(n, 3) == enumerate_schur(n, 3).mean()


def test_second_moment_trivial_and_printed():
    assert schur.second_moment(1, 2) == 0
    assert schur.second_moment(2, 2) == Fr(1, 2)  # single S1 triple indicator
    # printed n = 1 mod 12 branch at n = 13, c = 2
    expected = Fr(
        12 * (24 * 8 - 152 - 27 * 13 + 65 - 9 * 169 + 12 * 2 * 169 + 24 * 4 * 13 + 3 * 2197 - 64),
        48 * 16,
    )
    assert schur.second_moment(13, 2) == expected == Fr(629, 4)


def test_second_moment_matches_oracle():
    # every n with c^n <= 10^5
    for c, n_max in ((2, 16), (3, 10), (4, 8), (5, 7)):
        for n in range(1, n_max + 1):
            m2 = histogram_moments(enumerate_schur(n, c), 2).entries[2]
            assert schur.second_moment(n, c) == m2, (n, c)


def test_second_moment_matches_pair_walk():
    # the counted steps against the walk over every intersecting pair
    for c in (2, 3, 5):
        walked = schur_second_moments(150, c)
        assert schur.second_moment_grid(range(1, 151), c) == [(n, walked[n]) for n in range(1, 151)], c


def test_second_moment_grid_matches_pointwise():
    for ns, c in ((range(5, 12), 2), ([40, 13, 27, 13], 2), ([40, 13, 27, 13], 3), ([], 2)):
        grid = schur.second_moment_grid(ns, c)
        assert grid == [(n, schur.second_moment(n, c)) for n in ns]


def test_second_moment_equals_the_step_sweep():
    # the closed form against the step counts it replaced, at every n the sweep served
    for c in (2, 3, 5):
        swept = schur_swept_second_moments(50000, c)
        assert all(schur.second_moment(n, c) == swept[n] for n in range(1, 50001)), c


def test_normality_grid_keeps_its_order(run):
    proc = run("normality", "--family", "schur", "--n-grid", "20,40,60", "--r-max", "2")
    assert proc.code == 0
    rows = json.loads(proc.out)["result"]["rows"]
    assert [row["n"] for row in rows] == [20] * 3 + [40] * 3 + [60] * 3  # grid order kept


def _printed_branch(n, c):
    # the paper's n = 1 (mod 12) branch of E[X^2], as in acceptance criterion 2
    return Fr(
        (n - 1) * (24 * c**3 - 76 * c - 27 * n + 65 - 9 * n * n + 12 * c * n * n
                   + 24 * c * c * n + 3 * n**3 - 16 * c * c),
        48 * c**4,
    )


def test_second_moment_grid_matches_printed_branch_beyond_fit_range():
    ns = [*range(13, 302, 12), *(12 * 10**k + 1 for k in range(31))]
    for c in (2, 3, 5):
        for n, value in schur.second_moment_grid(ns, c):
            assert value == _printed_branch(n, c), (n, c)


@pytest.mark.parametrize("args", [
    ["central", "--family", "schur", "--n", str(10**100), "--r", "2"],
    ["moments", "--family", "schur", "--n", "50001", "--r", "2"],
])
def test_schur_is_served_at_any_n(args, run):
    started = time.monotonic()
    proc = run(*args)
    assert proc.code == 0
    assert json.loads(proc.out)["result"]["params"]["n"] == int(args[4])
    assert time.monotonic() - started < 1, args


def test_parameter_validation():
    with pytest.raises(ValueError):
        schur.first_moment(0, 2)
    with pytest.raises(ValueError):
        schur.second_moment(5, 1)


@pytest.mark.parametrize("args, error", [
    (["--n", "1", "--c", "1"], "need c >= 2"),
    (["--n", "-5"], "need n >= 1"),
])
def test_bad_parameters_are_named_before_the_order(args, error, run):
    # the default order, 4, is past the closed forms' r = 2: the parameter is still the error shown
    proc = run("moments", "--family", "schur", *args)
    assert proc.code == 1
    assert proc.out == ""
    assert proc.err.startswith(f"usage error: {error} "), proc.err
