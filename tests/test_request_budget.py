"""One size budget per request: grid points and printed digits add up, single charges refuse as before."""

import json
import signal

import pytest

from momentforge import cli
from momentforge.errors import SizeGuardError
from momentforge.families import common, domino
from momentforge.families.common import charge, grid_point, request_budget


@pytest.fixture(autouse=True)
def alarm():
    """Turn a request that runs away into a failure: each test gets 30 s."""

    def expired(signum, frame):
        raise TimeoutError("request ran past 30 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _grid(first, last):
    return ",".join(str(n) for n in range(first, last + 1))


# (argv, the guard the message names): each term alone is inside its guard,
# the sum is not; every one ran 6 to 21 s as a whole process before the sum
PAST_THE_SUM = [
    (["normality", "--family", "invmaj", "--n-grid", _grid(10, 29), "--r-max", "380"], "NUMERIC_ORDER_GUARD"),
    (["normality", "--family", "domino", "--m", "1", "--n-grid", _grid(10, 19), "--r-max", "380"], "NUMERIC_ORDER_GUARD"),
    (["moments", "--family", "invmaj", "--n", "20000", "--r", "100"], "PRINT_TOTAL_GUARD"),
    (["moments", "--family", "invmaj", "--n", "25000", "--r", "9"], "PRINT_TOTAL_GUARD"),
    (["normality", "--family", "invmaj", "--n-grid", "10,11,12", "--r-max", "271"], "NUMERIC_ORDER_GUARD"),
    (["normality", "--family", "domino", "--n-grid", "10,11,12", "--r-max", "272"], "NUMERIC_ORDER_GUARD"),
]

# the last order each summed term serves: one more is in PAST_THE_SUM
INSIDE_THE_SUM = [
    ["normality", "--family", "invmaj", "--n-grid", "10,11,12", "--r-max", "270"],
    ["normality", "--family", "domino", "--n-grid", "10,11,12", "--r-max", "271"],
    ["moments", "--family", "invmaj", "--n", "25000", "--r", "8"],
]


@pytest.mark.parametrize("args,guard", PAST_THE_SUM, ids=[" ".join(a[:3]) + f" {a[-1]}" for a, _ in PAST_THE_SUM])
def test_a_request_past_the_sum_is_refused_naming_the_dominant_term(args, guard, capsys):
    assert cli.main(args) == 1
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.startswith("usage error:") and f"{guard} size guard ({guard} = " in err.err, err.err
    if args[0] == "normality":
        assert "normality grid" in err.err and "size budgets together" in err.err, err.err
    else:
        assert "sum(digits^2)" in err.err, err.err


@pytest.mark.parametrize("args", INSIDE_THE_SUM, ids=[" ".join(a[:3]) + f" {a[-1]}" for a in INSIDE_THE_SUM])
def test_a_request_just_inside_the_sum_is_served(args, capsys):
    assert cli.main(args) == 0
    assert json.loads(capsys.readouterr().out)["result"]


def test_a_single_charge_past_its_limit_is_refused_with_its_guard_alone():
    with pytest.raises(SizeGuardError, match=r"^the order r = 11, beyond the X_GUARD size guard \(X_GUARD = 10\)$"):
        charge(11, 10, "X_GUARD", "the order r")
    charge(10, 10, "X_GUARD", "the order r")
    charge(10**400, 10, "X_GUARD", "a share no grid sees", alone=False)
    with request_budget(), pytest.raises(SizeGuardError, match="weigh 1e\\+300 size budgets"):
        grid_point(1)
        charge(10**400, 10, "X_GUARD", "a share past every float", alone=False)


LONG_GRID = ["normality", "--family", "invmaj", "--n-grid", _grid(10, 5009), "--r-max", "8"]


def test_a_long_grid_of_cheap_points_is_refused_at_its_floor_shares(capsys):
    # 5000 points weigh 0.05 budgets of size shares, but each costs about
    # 1 ms whatever its size: the grid ran 4 to 6 s as a whole process
    assert cli.main(LONG_GRID) == 1
    err = capsys.readouterr()
    assert err.out == ""
    assert "the normality grid's points = 5000, beyond the GRID_POINTS_GUARD size guard (GRID_POINTS_GUARD = 2000)" in err.err


def test_a_long_grid_is_refused_before_any_point_is_built(monkeypatch, capsys):
    import momentforge.families as families

    built = []
    monkeypatch.setattr(families, "moment_vector", lambda *args: built.append(args))
    assert cli.main(LONG_GRID) == 1
    assert "GRID_POINTS_GUARD size guard" in capsys.readouterr().err
    assert built == []


def test_the_floor_shares_are_summed_apart_from_the_size_shares(monkeypatch, capsys):
    monkeypatch.setattr(common, "GRID_POINTS_GUARD", 3)
    assert cli.main(["normality", "--family", "invmaj", "--n-grid", "10,11,12", "--r-max", "270"]) == 0
    assert cli.main(["normality", "--family", "invmaj", "--n-grid", "10,11,12,13", "--r-max", "4"]) == 1
    assert "GRID_POINTS_GUARD size guard (GRID_POINTS_GUARD = 3)" in capsys.readouterr().err


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


def test_a_request_refused_by_its_grid_leaves_no_grid_behind(capsys):
    assert cli.main(PAST_THE_SUM[4][0]) == 1
    capsys.readouterr()
    for _ in range(3):
        charge(9, 10, "X_GUARD", "w")


def test_a_cached_domino_sweep_is_charged_only_for_its_sums(monkeypatch):
    # 4 x 400 at r = 200: the sweep keeps sums worth 0.65 of TRANSFER_GUARD, the board's own 0.0032
    monkeypatch.setattr(domino, "_SWEPT", {})
    swept = []
    real_sweep = domino._face_sweep
    monkeypatch.setattr(domino, "_face_sweep", lambda *args: swept.append(args) or real_sweep(*args))
    with request_budget():
        grid_point(400)
        domino.binomial_sums(4, 400, 200)
        grid_point(399)
        domino.binomial_sums(4, 399, 200)  # the sweep of 400 rows serves it
    assert swept == [(4, 400, 200)]
    domino._SWEPT.clear()
    with request_budget(), pytest.raises(SizeGuardError, match="TRANSFER_GUARD size guard"):
        grid_point(400)
        domino.binomial_sums(4, 400, 200)
        domino._SWEPT.clear()  # as if each point ran a sweep of its own
        grid_point(399)
        domino.binomial_sums(4, 399, 200)
    assert len(swept) == 2


def test_a_fit_is_charged_for_what_it_prints(monkeypatch, capsys):
    argv = ["fit", "--r", "2", "--period", "12", "--degree", "4", "--n-min", "13", "--n-max", "96", "--verify", "2"]
    assert cli.main(argv) == 0
    assert "/" in json.loads(capsys.readouterr().out)["result"]["quasi_polynomial"]
    monkeypatch.setattr(cli, "PRINT_TOTAL_GUARD", 100)
    assert cli.main(argv) == 1
    assert "PRINT_TOTAL_GUARD size guard" in capsys.readouterr().err
