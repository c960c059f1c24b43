"""End-to-end CLI tests via subprocess: exit codes, schema validity, determinism."""

import json
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from momentforge.moment_algebra import MomentVector, raw_to_central


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "momentforge", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def schema():
    text = resources.files("momentforge").joinpath("schemas/output.schema.json").read_text()
    return json.loads(text)


def check_json(proc, schema):
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, schema)
    manifest = json.loads(proc.stderr.strip().splitlines()[-1])
    for key in ("subcommand", "parameters", "tool_version", "output", "wall_time_s"):
        assert key in manifest
    return payload, manifest


SMOKE_COMMANDS = [
    ("moments", ["moments", "--family", "domino", "--m", "2", "--n", "3", "--r", "3"]),
    ("central", ["central", "--family", "boolean", "--n", "3", "--k", "0", "--r", "4"]),
    (
        "binomial-moments",
        ["binomial-moments", "--family", "invmaj", "--n", "6", "--r", "4"],
    ),
    ("pgf", ["pgf", "--family", "invmaj", "--n", "4"]),
    (
        "normality",
        ["normality", "--family", "domino", "--n-grid", "11,101,1001", "--r-max", "4"],
    ),
    (
        "mgf-limit",
        ["mgf-limit", "--family", "board1n", "--n", "500", "--t-steps", "5"],
    ),
    ("oracle", ["oracle", "--family", "schur", "--n", "6", "--c", "2"]),
    (
        "fit",
        ["fit", "--family", "schur", "--r", "1", "--c", "2", "--period", "2",
         "--degree", "2", "--n-min", "1", "--n-max", "14"],
    ),
    (
        "fit-r2",
        ["fit", "--r", "2", "--period", "12", "--degree", "4", "--n-min", "13",
         "--n-max", "96", "--verify", "2"],
    ),
    ("identities", ["identities", "--r-max", "6"]),
    ("approx-h", ["approx-h", "--n", "3", "--k", "1", "--with-polynomial"]),
    ("approx-h-k0", ["approx-h", "--n", "8", "--k", "0", "--with-polynomial"]),
    ("pgf-domino-1xn", ["pgf", "--family", "domino", "--m", "1", "--n", "300"]),
]


@pytest.mark.parametrize("label,args", SMOKE_COMMANDS, ids=[c[0] for c in SMOKE_COMMANDS])
def test_every_subcommand_emits_schema_valid_json(label, args, schema):
    payload, manifest = check_json(run_cli(*args), schema)
    assert payload["subcommand"] == args[0]
    assert manifest["subcommand"] == args[0]


@pytest.mark.parametrize("label,args", SMOKE_COMMANDS, ids=[c[0] for c in SMOKE_COMMANDS])
def test_reruns_are_byte_identical(label, args, schema):
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout  # manifests differ only in wall time, on stderr


def test_domino_moments_table_value(schema):
    proc = run_cli("moments", "--family", "domino", "--m", "2", "--n", "3", "--r", "3")
    payload, _ = check_json(proc, schema)
    assert payload["result"]["scaled_entries"][3] == "3920"


def test_domino_moments_exact_off_the_closed_form_domain(schema):
    payload, _ = check_json(
        run_cli("moments", "--family", "domino", "--m", "2", "--n", "2", "--r", "4"), schema
    )
    result = payload["result"]
    assert result["entries"][4] == "44"
    assert result["scaled_entries"][4] == "704"
    assert "closed_forms" not in result and "symbols" not in result


def test_domino_central_matches_oracle(schema):
    central, _ = check_json(
        run_cli("central", "--family", "domino", "--m", "2", "--n", "3", "--r", "4"), schema
    )
    oracle, _ = check_json(
        run_cli("oracle", "--family", "domino", "--m", "2", "--n", "3", "--r-max", "4"), schema
    )
    raw = MomentVector("raw", [Fraction(x) for x in oracle["result"]["moments"]])
    expect = [str(e) for e in raw_to_central(raw, raw.entries[1]).entries]
    assert central["result"]["entries"] == expect
    assert "closed_forms" not in central["result"]


def test_domino_transfer_guard_exits_1():
    proc = run_cli("moments", "--family", "domino", "--m", "20", "--n", "30", "--r", "4")
    assert proc.returncode == 1
    assert "size guard" in proc.stderr


@pytest.mark.parametrize("subcommand", ["central", "binomial-moments"])
@pytest.mark.parametrize(
    "params",
    [["domino", "--m", "2"], ["domino", "--m", "1"], ["boolean", "--k", "0"], ["boolean", "--k", "1"]],
    ids=["domino-2x3", "domino-1x3", "boolean-k0", "boolean-k1"],
)
def test_order_zero_about_the_mean(subcommand, params, schema):
    payload, _ = check_json(run_cli(subcommand, "--family", *params, "--n", "3", "--r", "0"), schema)
    assert payload["result"]["entries"] == ["1"]


def test_pgf_trivial_case():
    proc = run_cli("pgf", "--family", "invmaj", "--n", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["polynomial"] == "1"


def test_identities_rows_all_ok(schema):
    proc = run_cli("identities", "--r-max", "10")
    payload, _ = check_json(proc, schema)
    assert payload["result"]["all_ok"] is True
    rows = payload["result"]["rows"]
    assert {"r": 4, "t": 2, "value": "3/16", "expected": "3/16", "ok": True} in rows


def test_csv_format_and_out_file(tmp_path):
    out = tmp_path / "hist.csv"
    proc = run_cli(
        "oracle", "--family", "invmaj", "--n", "4", "--format", "csv", "--out", str(out)
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "value,count"
    assert lines[1] == "0,1"
    manifest = json.loads(proc.stderr.strip().splitlines()[-1])
    assert manifest["output"] == str(out)


def test_normality_csv_columns():
    proc = run_cli(
        "normality", "--family", "invmaj", "--n-grid", "4,6,8", "--r-max", "4",
        "--format", "csv",
    )
    assert proc.returncode == 0
    header = proc.stdout.splitlines()[0]
    assert header == "family,params,r,n,m_r,target,deviation,verdict"


def test_oracle_sampling_mode_reproducible(schema):
    args = ["oracle", "--family", "boolean", "--n", "4", "--k", "1",
            "--samples", "200", "--seed", "99"]
    a, _ = check_json(run_cli(*args), schema)
    b, _ = check_json(run_cli(*args), schema)
    assert a == b
    assert a["result"]["mode"] == "sample"
    assert a["result"]["seed"] == 99


def test_oracle_sampling_needs_seed():
    proc = run_cli("oracle", "--family", "boolean", "--n", "4", "--k", "1",
                   "--samples", "10")
    assert proc.returncode == 1
    assert "seed" in proc.stderr


SWEEP_GUARD_ARGS = [
    ["moments", "--family", "schur", "--n", "601", "--r", "2"],
    ["fit", "--r", "2", "--period", "12", "--degree", "4", "--n-min", "13", "--n-max", "601"],
]

# the first argv beyond PGF_GUARD on each closed-form PGF route
PGF_GUARD_ARGS = [
    ["pgf", "--family", "invmaj", "--n", "188"],
    ["pgf", "--family", "boolean", "--n", "13"],
    ["pgf", "--family", "domino", "--m", "1", "--n", "4473"],
]

# past the printed-size guard: 2^(2^19) has 157827 digits, 2^400000 has 120412;
# the last three are refused from a bound on the sample-space size, before
# it is built (10^6! has 5565709 digits, 2^(2^33) and 2^(10^10) billions)
PRINT_GUARD_ARGS = [
    ["moments", "--family", "boolean", "--n", "19", "--r", "1"],
    ["moments", "--family", "domino", "--m", "1", "--n", "400000", "--r", "1"],
    ["moments", "--family", "invmaj", "--n", "1000000", "--r", "2"],
    ["moments", "--family", "boolean", "--n", "33", "--r", "2"],
    ["moments", "--family", "domino", "--m", "100000", "--n", "100000", "--r", "2"],
]

# past MGF_GUARD on the t points' evaluations (17 steps by default), weighed
# by the precision
MGF_GUARD_ARGS = [
    ["mgf-limit", "--family", "invmaj", "--n", "11765"],
    ["mgf-limit", "--family", "invmaj", "--n", "1000000", "--t-steps", "2"],
    ["mgf-limit", "--family", "invmaj", "--n", "400", "--precision", "800"],
    ["mgf-limit", "--family", "board1n", "--n", "11764", "--precision", "20000"],
]


def test_usage_errors_exit_1():
    for args in (
        ["moments", "--family", "nosuch", "--n", "3"],
        ["moments", "--family", "schur", "--n", "4", "--r", "7"],
        ["oracle", "--family", "invmaj", "--n", "12"],  # guard: 12! too large
        ["no-such-command"],
        ["mgf-limit", "--family", "invmaj", "--n", "1"],
        # only boolean has a sampling mode
        ["oracle", "--family", "domino", "--m", "2", "--n", "2", "--samples", "5", "--seed", "1"],
        ["oracle", "--family", "boolean", "--n", "3", "--k", "4"],
        ["fit", "--r", "1", "--period", "2", "--degree", "2", "--n-min", "1",
         "--n-max", "14", "--verify", "1"],
        ["fit", "--r", "1", "--c", "1", "--period", "2", "--degree", "2", "--n-min", "1",
         "--n-max", "14"],
        # no subcommand takes --threads
        ["moments", "--family", "invmaj", "--n", "4", "--threads", "2"],
        ["oracle", "--family", "schur", "--n", "6", "--threads", "2"],
        ["fit", "--r", "1", "--period", "2", "--degree", "2", "--n-min", "1",
         "--n-max", "14", "--threads", "2"],
        # beyond the Schur E[X^2] sweep guard
        *SWEEP_GUARD_ARGS,
        *PGF_GUARD_ARGS,
        *PRINT_GUARD_ARGS,
        *MGF_GUARD_ARGS,
    ):
        proc = run_cli(*args)
        assert proc.returncode == 1, (args, proc.stderr)
        assert proc.stdout == "", args
        assert proc.stderr.startswith("usage error:"), (args, proc.stderr)
        assert "Traceback" not in proc.stderr, (args, proc.stderr)
        if args in SWEEP_GUARD_ARGS:
            assert "SWEEP_GUARD size guard" in proc.stderr, (args, proc.stderr)
        if args in PGF_GUARD_ARGS:
            assert "PGF_GUARD" in proc.stderr, (args, proc.stderr)
        if args in PRINT_GUARD_ARGS:
            assert "PRINT_GUARD" in proc.stderr, (args, proc.stderr)
        if args in MGF_GUARD_ARGS:
            assert "MGF_GUARD" in proc.stderr, (args, proc.stderr)


@pytest.mark.parametrize(
    "args",
    [
        ["binomial-moments", "--family", "invmaj", "--n", "1000000", "--r", "10"],
        ["normality", "--family", "invmaj", "--n-grid", "10,100,100000"],
    ],
    ids=["binomial-moments", "normality"],
)
def test_invmaj_moments_at_large_n_are_quick(args, schema):
    started = time.monotonic()
    check_json(run_cli(*args), schema)
    assert time.monotonic() - started < 10, args


def test_numbers_past_the_interpreter_digit_limit_are_printed(schema):
    # 2^(2^14) has 4933 digits, past the 4300 that int-to-str allows by default
    payload, _ = check_json(run_cli("moments", "--family", "boolean", "--n", "14", "--r", "1"), schema)
    space = payload["result"]["sample_space_size"]
    assert len(space) == 4933
    assert int(space[-6:]) == 2 ** (2**14) % 10**6


def test_fit_verification_failure_exits_2():
    proc = run_cli(
        "fit", "--family", "schur", "--r", "2", "--c", "2", "--period", "12",
        "--degree", "3", "--n-min", "13", "--n-max", "120",
    )
    assert proc.returncode == 2
    assert "verification mismatch" in proc.stderr


def test_mgf_limit_json_fields(schema):
    proc = run_cli("mgf-limit", "--family", "invmaj", "--n", "50", "--t-steps", "9")
    payload, _ = check_json(proc, schema)
    result = payload["result"]
    assert result["n"] == 50
    assert len(result["rows"]) == 9
    assert float(result["sup_deviation"]) < 0.3


def test_approx_h_fields(schema):
    proc = run_cli("approx-h", "--n", "4", "--k", "1")
    payload, _ = check_json(proc, schema)
    r = payload["result"]
    assert r["p"] == "1/4"
    assert r["mean"] == "15/2"  # n(2^n - 1)/8 at n = 4
    assert r["exact_mean"] == "8"  # n 2^n / 8
