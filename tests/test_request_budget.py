"""One size budget per request: grid points and printed digits add up, single charges refuse as before."""

import json

import pytest

from momentforge import cli
from momentforge.errors import SizeGuardError
from momentforge.families import common, domino
from momentforge.families.common import charge, grid_point, request_budget
from refusals import LONG_GRID, PAST_THE_SUM, argvs

# each test gets 30 s (conftest.py), so a request that runs away fails
pytestmark = pytest.mark.usefixtures("alarm")


# the last order each summed term serves: one more is a PAST_THE_SUM row of refusals.py
INSIDE_THE_SUM = [
    ["normality", "--family", "invmaj", "--n-grid", "10,11,12", "--r-max", "270"],
    ["moments", "--family", "invmaj", "--n", "25000", "--r", "8"],
]


@pytest.mark.parametrize("args", argvs(PAST_THE_SUM), ids=lambda a: " ".join(a[:3]) + f" {a[-1]}")
def test_a_request_past_the_sum_is_refused_naming_the_dominant_term(args, run):
    # the guard each names: its row's fragment, checked with every row
    proc = run(*args)
    assert proc.code == 1
    if args[0] == "normality":
        assert "normality grid" in proc.err and "size budgets together" in proc.err, proc.err
    else:
        assert "sum(digits^2)" in proc.err, proc.err


@pytest.mark.parametrize("args", INSIDE_THE_SUM, ids=[" ".join(a[:3]) + f" {a[-1]}" for a in INSIDE_THE_SUM])
def test_a_request_just_inside_the_sum_is_served(args, run):
    proc = run(*args)
    assert proc.code == 0
    assert json.loads(proc.out)["result"]


def test_a_single_charge_past_its_limit_is_refused_with_its_guard_alone():
    with pytest.raises(SizeGuardError, match=r"^the order r = 11, beyond the X_GUARD size guard \(X_GUARD = 10\)$"):
        charge(11, 10, "X_GUARD", "the order r")
    charge(10, 10, "X_GUARD", "the order r")
    charge(10**400, 10, "X_GUARD", "a share no grid sees", alone=False)
    with request_budget(), pytest.raises(SizeGuardError, match="weigh 1e\\+300 size budgets"):
        grid_point(1)
        charge(10**400, 10, "X_GUARD", "a share past every float", alone=False)


def test_a_long_grid_is_refused_before_any_point_is_built(monkeypatch, run):
    # refused at its floor shares (its row of refusals.py)
    import momentforge.families as families

    built = []
    monkeypatch.setattr(families, "moment_vector", lambda *args: built.append(args))
    proc = run(*argvs(LONG_GRID)[0])
    assert proc.code == 1
    assert "GRID_POINTS_GUARD size guard" in proc.err
    assert built == []


def test_the_floor_shares_are_summed_apart_from_the_size_shares(monkeypatch, run):
    monkeypatch.setattr(common, "GRID_POINTS_GUARD", 3)
    assert run("normality", "--family", "invmaj", "--n-grid", "10,11,12", "--r-max", "270").code == 0
    proc = run("normality", "--family", "invmaj", "--n-grid", "10,11,12,13", "--r-max", "4")
    assert proc.code == 1
    assert "GRID_POINTS_GUARD size guard (GRID_POINTS_GUARD = 3)" in proc.err


def test_only_a_grid_adds_shares_up():
    # outside a grid, and in a request without one, nothing adds up
    for _ in range(3):
        charge(9, 10, "X_GUARD", "w")
    with request_budget():
        for _ in range(3):
            charge(9, 10, "X_GUARD", "w")
    with request_budget():
        grid_point(3)
        charge(6, 10, "X_GUARD", "w")
        charge(5, 10, "Y_GUARD", "v")  # a point adds only its largest share
        charge(10**6, 10**6, "N_BOUND", "n", summed=False)  # a discrete bound adds nothing
        grid_point(2)
        charge(4, 10, "Y_GUARD", "v")
        grid_point(1)
        with pytest.raises(
            SizeGuardError,
            match=r"down to n = 1 weigh 1\.1 size budgets together, past one; "
            r"its largest share, 0\.6 at n = 3, is w = 6, against the X_GUARD size guard \(X_GUARD = 10\)",
        ):
            charge(1, 10, "Z_GUARD", "u", alone=False)  # a share only a grid refuses
    # the request's grid is dropped with it
    charge(9, 10, "X_GUARD", "w")


def test_a_request_refused_by_its_grid_leaves_no_grid_behind(run):
    assert run(*argvs(PAST_THE_SUM)[2]).code == 1
    for _ in range(3):
        charge(9, 10, "X_GUARD", "w")


def test_a_kept_domino_sweep_is_charged_once(monkeypatch):
    # 17 rows of 14 cells at r = 32, the sweep of every 14-by-L board past b + 2 = 17 rows,
    # weighs 0.66 of TRANSFER_GUARD
    swept = []
    monkeypatch.setattr(domino, "_SWEEPS", {})

    def sweep(w, rows, r):
        swept.append((w, rows, r))
        return ((0,) * (r + 1),) * rows

    monkeypatch.setattr(domino, "_face_sweep", sweep)
    with request_budget():
        grid_point(400)
        domino._sweep(14, 17, 32)
        grid_point(399)
        domino._sweep(14, 17, 32)  # the same sweep, kept
    assert swept == [(14, 17, 32)]
    domino._SWEEPS.clear()
    with request_budget(), pytest.raises(SizeGuardError, match="TRANSFER_GUARD size guard"):
        grid_point(400)
        domino._sweep(14, 17, 32)
        domino._SWEEPS.clear()  # as if each point ran a sweep of its own
        grid_point(399)
        domino._sweep(14, 17, 32)
    assert len(swept) == 2


def test_each_domino_point_adds_its_moments_to_the_grid(run):
    # at r = 291 a 2-by-L board's moments weigh 0.03 to 0.05 of TRANSFER_GUARD: three points are
    # served, and a grid of 2 x 582..641 is refused on the sum of its points, no one of them past the guard
    assert run("normality", "--family", "domino", "--m", "2", "--n-grid", "582,583,170000", "--r-max", "291").code == 0
    grid = ",".join(map(str, range(582, 642)))
    proc = run("normality", "--family", "domino", "--m", "2", "--n-grid", grid, "--r-max", "291")
    assert proc.code == 1
    assert "size budgets together, past one" in proc.err and "the moments of the 2x" in proc.err, proc.err


def test_a_fit_is_charged_for_what_it_prints(monkeypatch, run):
    argv = ["fit", "--r", "2", "--period", "12", "--degree", "4", "--n-min", "13", "--n-max", "96", "--verify", "2"]
    proc = run(*argv)
    assert proc.code == 0
    assert "/" in json.loads(proc.out)["result"]["quasi_polynomial"]
    monkeypatch.setattr(cli, "PRINT_TOTAL_GUARD", 100)
    proc = run(*argv)
    assert proc.code == 1
    assert "PRINT_TOTAL_GUARD size guard" in proc.err
