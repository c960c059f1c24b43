import json
from fractions import Fraction as Fr

import pytest

from momentforge.errors import SizeGuardError
from momentforge.families import schur
from momentforge.oracle import enumerate_schur, histogram_moments
from momentforge.poly_series import Polynomial
from reference import first_moment_quasi, indicator_first_moment, schur_second_moments, triples


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
    for v in range(1, 30):
        assert qp.eval(v) == schur.first_moment(v, 2)


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


def test_one_sweep_serves_every_c(monkeypatch):
    monkeypatch.setattr(schur, "_SWEPT", [])
    calls = []
    original = schur._sweep

    def spy(top):
        calls.append(top)
        return original(top)

    monkeypatch.setattr(schur, "_sweep", spy)
    long_run = [(n, schur.second_moment(n, 2)) for n in (60, 30, 1)]
    long_run += schur.second_moment_grid([59, 7, 60], 2)
    long_run += schur.second_moment_grid([60, 30], 3)
    assert calls == [60]
    walked2, walked3 = schur_second_moments(60, 2), schur_second_moments(60, 3)
    assert long_run == [(n, walked2[n]) for n in (60, 30, 1, 59, 7, 60)] + [(n, walked3[n]) for n in (60, 30)]
    # the counts at n of a longer sweep are the counts of a sweep that stops there
    assert all(original(n)[n] == original(60)[n] for n in (1, 7, 30, 59))
    schur.second_moment(30, 5)
    schur.second_moment(61, 2)
    assert calls == [60, 61]


def test_normality_grid_runs_one_schur_sweep(monkeypatch, capsys):
    from momentforge.cli import main

    monkeypatch.setattr(schur, "_SWEPT", [])
    calls = []
    original = schur._sweep
    monkeypatch.setattr(schur, "_sweep", lambda top: calls.append(top) or original(top))
    assert main(["normality", "--family", "schur", "--n-grid", "20,40,60", "--r-max", "2"]) == 0
    assert calls == [60]
    rows = json.loads(capsys.readouterr().out)["result"]["rows"]
    assert [row["n"] for row in rows] == [20] * 3 + [40] * 3 + [60] * 3  # grid order kept
    # the same sweep serves every c
    assert main(["central", "--family", "schur", "--n", "45", "--r", "2", "--c", "3"]) == 0
    assert calls == [60]


def test_second_moment_grid_matches_printed_branch_beyond_fit_range():
    # the paper's n = 1 (mod 12) branch of E[X^2], as in acceptance criterion 2
    ns = range(13, 302, 12)
    for c in (2, 3, 5):
        for n, value in schur.second_moment_grid(ns, c):
            printed = Fr(
                (n - 1) * (24 * c**3 - 76 * c - 27 * n + 65 - 9 * n * n + 12 * c * n * n
                           + 24 * c * c * n + 3 * n**3 - 16 * c * c),
                48 * c**4,
            )
            assert value == printed, (n, c)


def test_second_moment_sweep_guard():
    with pytest.raises(SizeGuardError, match="SWEEP_GUARD"):
        schur.second_moment_grid([13, schur.SWEEP_GUARD + 1], 2)
    with pytest.raises(SizeGuardError):
        schur.second_moment(schur.SWEEP_GUARD + 1, 3)


def test_parameter_validation():
    with pytest.raises(ValueError):
        schur.first_moment(0, 2)
    with pytest.raises(ValueError):
        schur.second_moment(5, 1)
