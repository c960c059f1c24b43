"""End-to-end CLI tests, run in process through ``conftest.run``: exit codes, schema validity, guards.

Three tests run ``python -m momentforge`` as a process, one per exit code:
``test_csv_format_and_out_file`` (0),
``test_mgf_guard_refuses_before_the_t_grid_is_built`` (1) and
``test_fit_verification_failure_exits_2`` (2).
"""

import json
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from momentforge.moment_algebra import MomentVector, raw_to_central
from refusals import FIT_AND_GRID, HUGE_BOOLEAN, REFUSALS, argvs


def test_domino_moments_table_value(run, served):
    payload, _ = served(run("moments", "--family", "domino", "--m", "2", "--n", "3", "--r", "3"))
    assert payload["result"]["scaled_entries"][3] == "3920"


def test_domino_moments_exact_off_the_closed_form_domain(run, served):
    payload, _ = served(run("moments", "--family", "domino", "--m", "2", "--n", "2", "--r", "4"))
    result = payload["result"]
    assert result["entries"][4] == "44"
    assert result["scaled_entries"][4] == "704"
    assert "closed_forms" not in result and "symbols" not in result


def test_domino_central_matches_oracle(run, served):
    central, _ = served(run("central", "--family", "domino", "--m", "2", "--n", "3", "--r", "4"))
    oracle, _ = served(run("oracle", "--family", "domino", "--m", "2", "--n", "3", "--r-max", "4"))
    raw = MomentVector("raw", [Fraction(x) for x in oracle["result"]["moments"]])
    expect = [str(e) for e in raw_to_central(raw, raw.entries[1]).entries]
    assert central["result"]["entries"] == expect
    assert "closed_forms" not in central["result"]


def test_domino_length_costs_only_its_digits(run, served):
    # r = 4 reads boards of at most 3 rows: a board of 2*10^9 cells is served at once
    started = time.monotonic()
    payload, _ = served(run("central", "--family", "domino", "--m", "2", "--n", "1000000000", "--r", "4"))
    assert payload["result"]["entries"][2] == "1499999999/2"  # A/4, A = 3*10^9 - 2 slots
    assert time.monotonic() - started < 3


@pytest.mark.parametrize(
    "args",
    [
        ["moments", "--family", "domino", "--m", "3", "--n", "40", "--r", "5"],
        ["central", "--family", "domino", "--m", "40", "--n", "3", "--r", "5"],
        ["normality", "--family", "domino", "--m", "3", "--n-grid", "20,30,40", "--r-max", "5"],
    ],
    ids=["moments", "central", "normality"],
)
def test_domino_sweep_off_the_polynomial_exits_2(args, run, monkeypatch):
    # N_1 one 2^{wL} too large on the sweep's last row, the row that checks the extrapolation
    from momentforge.families import domino

    original = domino._face_sweep

    def corrupted(w, rows, r):
        sums = [list(row) for row in original(w, rows, r)]
        sums[-1][1] += 1 << (w * rows)
        return tuple(tuple(row) for row in sums)

    monkeypatch.setattr(domino, "_face_sweep", corrupted)
    proc = run(*args)
    assert proc.code == 2
    assert proc.out == ""
    assert proc.err.startswith("validation failure:"), proc.err


@pytest.mark.parametrize("perimeter", [3, 4], ids=["odd", "squares"])
def test_domino_sweep_off_the_grid_invariants_exits_2(perimeter, run, monkeypatch):
    # one perimeter count off by one where the sweep of width 4 (4 rows at r = 6)
    # reads off its third row: an odd perimeter, or a count of unit squares that is
    # not (w-1)(rows-1)
    from momentforge.families import domino

    original = domino._check_counts

    def corrupted(counts, w, rows):
        if rows == 3:
            counts = [*counts]
            counts[perimeter] += 1
        original(counts, w, rows)

    monkeypatch.setattr(domino, "_check_counts", corrupted)
    proc = run("moments", "--family", "domino", "--m", "4", "--n", "6", "--r", "6")
    assert proc.code == 2
    assert proc.out == ""
    assert proc.err.startswith("validation failure: width 4, 3 rows:"), proc.err


@pytest.mark.parametrize("subcommand", ["central", "binomial-moments"])
@pytest.mark.parametrize(
    "params",
    [["domino", "--m", "2"], ["domino", "--m", "1"], ["boolean", "--k", "0"], ["boolean", "--k", "1"]],
    ids=["domino-2x3", "domino-1x3", "boolean-k0", "boolean-k1"],
)
def test_order_zero_about_the_mean(subcommand, params, run, served):
    payload, _ = served(run(subcommand, "--family", *params, "--n", "3", "--r", "0"))
    assert payload["result"]["entries"] == ["1"]


def test_pgf_trivial_case(run):
    proc = run("pgf", "--family", "invmaj", "--n", "1")
    assert proc.code == 0
    assert json.loads(proc.out)["result"]["polynomial"] == "1"


def test_identities_rows_all_ok(run, served):
    payload, _ = served(run("identities", "--r-max", "10"))
    assert payload["result"]["all_ok"] is True
    rows = payload["result"]["rows"]
    assert {"r": 4, "t": 2, "value": "3/16", "expected": "3/16", "ok": True} in rows


def test_identities_guard_edge(run):
    # the battery is weighed by its table, served to SYMBOLIC_ORDER_GUARD (refused past it: refusals.py)
    from momentforge.families.common import SYMBOLIC_ORDER_GUARD

    assert SYMBOLIC_ORDER_GUARD == 128
    proc = run("identities", "--r-max", "128")
    assert proc.code == 0
    payload = json.loads(proc.out)
    assert payload["result"]["all_ok"] is True
    assert payload["result"]["rows"][-1]["r"] == 128


def test_identities_lower_edge(run):
    # order 0 is one row (a negative order is refused: refusals.py)
    proc = run("identities", "--r-max", "0")
    assert proc.code == 0
    rows = json.loads(proc.out)["result"]["rows"]
    assert rows == [{"r": 0, "t": 0, "value": "1", "expected": "1", "ok": True}]


def test_csv_format_and_out_file(tmp_path):
    out = tmp_path / "hist.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "momentforge", "oracle", "--family", "invmaj", "--n", "4",
         "--format", "csv", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "value,count"
    assert lines[1] == "0,1"
    manifest = json.loads(proc.stderr.strip().splitlines()[-1])
    assert manifest["output"] == str(out)


def test_normality_csv_columns(run):
    proc = run("normality", "--family", "invmaj", "--n-grid", "4,6,8", "--r-max", "4", "--format", "csv")
    assert proc.code == 0
    header = proc.out.splitlines()[0]
    assert header == "family,params,r,n,m_r,target,deviation,verdict"


def test_oracle_sampling_mode_reproducible(run, served):
    args = ["oracle", "--family", "boolean", "--n", "4", "--k", "1",
            "--samples", "200", "--seed", "99"]
    a, _ = served(run(*args))
    b, _ = served(run(*args))
    assert a == b
    assert a["result"]["mode"] == "sample"
    assert a["result"]["seed"] == 99


@pytest.mark.parametrize("row", REFUSALS, ids=[row.label for row in REFUSALS])
def test_refused_argv_exits_1(row, run):
    # CI runs every row as a whole process too
    proc = run(*row.argv)
    assert proc.code == 1, proc.err
    assert proc.out == ""
    assert proc.err.startswith("usage error:"), proc.err
    assert "Traceback" not in proc.err, proc.err
    for fragment in row.fragments:
        assert fragment in proc.err.splitlines()[-1], (fragment, proc.err)


@pytest.mark.parametrize("args", argvs(HUGE_BOOLEAN), ids=lambda args: " ".join(args))
def test_boolean_moments_at_a_huge_n_are_refused_before_2_to_the_n_is_built(args, run):
    tracemalloc.start()
    try:
        proc = run(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert proc.code == 1, proc.err
    assert peak < 10**6, peak


@pytest.mark.parametrize(
    "args",
    [
        ["binomial-moments", "--family", "invmaj", "--n", "1000000", "--r", "10"],
        ["normality", "--family", "invmaj", "--n-grid", "10,100,100000"],
        ["central", "--family", "boolean", "--n", "10", "--r", "100"],
        ["central", "--family", "domino", "--m", "1", "--n", "50", "--r", "100"],
        # oracle requests that took 35-65 s before the oracles were word-parallel
        ["oracle", "--family", "schur", "--n", "13", "--c", "3"],
        ["oracle", "--family", "boolean", "--n", "14", "--k", "7", "--samples", "1", "--seed", "1"],
        # domino boards past b + 2 rows, served by log F coefficients extrapolated from small
        # boards (8 x 6100 took 6.3 s and 12 x 400 was past the transfer guard before the face sweep)
        ["central", "--family", "domino", "--m", "8", "--n", "1000000", "--r", "8"],
        ["central", "--family", "domino", "--m", "12", "--n", "400", "--r", "8"],
        ["central", "--family", "domino", "--m", "8", "--n", "6100", "--r", "8"],
        # numeric cumulants: not refused by the symbolic order guard
        ["binomial-moments", "--family", "invmaj", "--n", "10", "--r", "200"],
        # Schur E[X^2] in closed form at any n (n = 50001 was past a size guard before)
        ["moments", "--family", "schur", "--n", "50001", "--r", "2"],
    ],
    ids=["binomial-moments", "normality", "boolean-central-r100", "domino-1xn-central-r100",
         "oracle-schur-n13-c3", "oracle-boolean-sample-n14-k7", "domino-central-8x1000000",
         "domino-central-12x400", "domino-central-8x6100", "invmaj-binomial-r200", "schur-moments-n50001"],
)
def test_invmaj_moments_at_large_n_are_quick(args, run, served):
    started = time.monotonic()
    served(run(*args))
    assert time.monotonic() - started < 10, args


def test_domino_moments_at_a_high_order_are_quick(run, served):
    # 2 x 584 at r = 291: three small boards' log F coefficients, one board's sums and
    # r^2 steps a conversion took 0.1-0.2 s; the length fit took 0.2-0.3 s, and
    # cumulants of three small boards, each off r^2 products, 0.8-1.0 s
    started = time.monotonic()
    served(run("central", "--family", "domino", "--m", "2", "--n", "584", "--r", "291"))
    assert time.monotonic() - started < 0.6


def test_numbers_past_the_interpreter_digit_limit_are_printed(run, served):
    # 2^(2^14) has 4933 digits, past the 4300 that int-to-str allows by default
    payload, _ = served(run("moments", "--family", "boolean", "--n", "14", "--r", "1"))
    space = payload["result"]["sample_space_size"]
    assert len(space) == 4933
    assert int(space[-6:]) == 2 ** (2**14) % 10**6


def test_cube_guard_edge(run):
    # the k-cube moments at the guard are served, with closed forms past
    # the interpreter's 4300-digit limit (E[X^2] carries 2^(2^16)), and one
    # dimension more is refused
    from momentforge.families.boolean import CUBE_GUARD

    proc = run("central", "--family", "boolean", "--n", str(CUBE_GUARD), "--k", str(CUBE_GUARD), "--r", "2")
    assert proc.code == 0
    result = json.loads(proc.out)["result"]
    assert max(len(text) for text in result["closed_forms"]) > 4300
    for args in (
        ["central", "--family", "boolean", "--n", str(CUBE_GUARD + 1), "--k", str(CUBE_GUARD + 1), "--r", "0"],
        ["moments", "--family", "boolean", "--n", "20", "--k", "20", "--r", "1"],
        ["normality", "--family", "boolean", "--k", "16", "--n-grid", "16,17,18", "--r-max", "2"],
    ):
        started = time.monotonic()
        proc = run(*args)
        assert proc.code == 1
        assert proc.out == ""
        assert proc.err.startswith("usage error:") and "CUBE_GUARD = " in proc.err, proc.err
        # refused before any moment is built
        assert time.monotonic() - started < 1, args


def test_fit_and_grid_guard_edges(run):
    # every argv past the fit and normality grid guards is refused before anything is built
    for args in argvs(FIT_AND_GRID):
        started = time.monotonic()
        proc = run(*args)
        assert proc.code == 1
        assert proc.out == ""
        assert time.monotonic() - started < 1, args


@pytest.mark.parametrize("grid", ["299,300", "40,20,60", "20,20,60"])
def test_normality_grid_is_checked_before_any_point_is_built(grid, run, monkeypatch):
    import momentforge.families as families

    calls = []
    monkeypatch.setattr(families, "moment_vector", lambda *args: calls.append(args))
    proc = run("normality", "--family", "schur", "--n-grid", grid, "--r-max", "2")
    assert proc.code == 1
    assert ("at least 3 points" if grid == "299,300" else "strictly increasing") in proc.err, proc.err
    assert calls == []


def test_integers_past_ten_to_the_fifth_digits_are_printed(run, served):
    # 2^332193 has 100001 digits, printed twice: inside the print total
    payload, _ = served(run("moments", "--family", "domino", "--m", "1", "--n", "332193", "--r", "0"))
    result = payload["result"]
    assert len(result["sample_space_size"]) == 10**5 + 1
    assert int(result["sample_space_size"][-6:]) == pow(2, 332193, 10**6)
    assert result["scaled_entries"] == [result["sample_space_size"]]


def test_a_sample_space_past_the_print_total_is_refused_before_it_is_built(run, monkeypatch):
    import dataclasses

    from momentforge.families import FAMILIES

    def never(params):
        raise AssertionError(f"the sample space of {params} built past the print total")

    monkeypatch.setitem(FAMILIES, "boolean", dataclasses.replace(FAMILIES["boolean"], space_size=never))
    proc = run("moments", "--family", "boolean", "--n", "33", "--r", "2")
    assert proc.code == 1
    assert proc.out == ""
    assert "a lower bound on sum(digits^2) of the sample-space size, printed twice" in proc.err, proc.err
    assert "PRINT_TOTAL_GUARD size guard" in proc.err, proc.err


def test_mgf_guard_refuses_before_the_t_grid_is_built():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "momentforge", "mgf-limit", "--family", "board1n", "--n", "10",
         "--t-steps", "1000000"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and "MGF_GUARD" in proc.stderr, proc.stderr
    assert time.monotonic() - started < 3


# (subcommand argv, the layer it calls): every subcommand maps a failed
# internal check to exit 2 and any other package error to exit 1
CONTRACT_LAYERS = [
    (["moments", "--family", "invmaj", "--n", "4"], "momentforge.families.moment_vector"),
    (["pgf", "--family", "invmaj", "--n", "4"], "momentforge.families.invmaj.pgf"),
    (["oracle", "--family", "invmaj", "--n", "4"], "momentforge.oracle.enumerate_permutations"),
    (["normality", "--family", "invmaj", "--n-grid", "4,6,8"], "momentforge.families.moment_vector"),
    (["fit", "--r", "1", "--period", "2", "--degree", "2", "--n-min", "1", "--n-max", "14"],
     "momentforge.families.schur.first_moment"),
    (["approx-h", "--n", "3"], "momentforge.families.boolean.h_moments"),
    (["mgf-limit", "--family", "invmaj", "--n", "10", "--t-steps", "3"], "momentforge.families.invmaj.mgf_deviation"),
]


@pytest.mark.parametrize(
    "error,code,prefix",
    [("ConsistencyError", 2, "validation failure:"), ("SizeGuardError", 1, "usage error:")],
    ids=["consistency-exits-2", "size-guard-exits-1"],
)
@pytest.mark.parametrize("args,layer", CONTRACT_LAYERS, ids=[a[0] for a, _ in CONTRACT_LAYERS])
def test_exit_code_contract(args, layer, error, code, prefix, run, monkeypatch):
    from momentforge import errors

    def planted(*_, **__):
        raise getattr(errors, error)("planted")

    monkeypatch.setattr(layer, planted)
    proc = run(*args)
    assert proc.code == code
    assert proc.out == ""
    assert proc.err.startswith(f"{prefix} planted"), proc.err


def test_fit_verification_failure_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "momentforge", "fit", "--family", "schur", "--r", "2", "--c", "2",
         "--period", "12", "--degree", "3", "--n-min", "13", "--n-max", "120"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "verification mismatch" in proc.stderr


def test_mgf_limit_json_fields(run, served):
    payload, _ = served(run("mgf-limit", "--family", "invmaj", "--n", "50", "--t-steps", "9"))
    result = payload["result"]
    assert result["n"] == 50
    assert len(result["rows"]) == 9
    assert float(result["sup_deviation"]) < 0.3


def test_approx_h_fields(run, served):
    payload, _ = served(run("approx-h", "--n", "4", "--k", "1"))
    r = payload["result"]
    assert r["p"] == "1/4"
    assert r["mean"] == "15/2"  # n(2^n - 1)/8 at n = 4
    assert r["exact_mean"] == "8"  # n 2^n / 8
