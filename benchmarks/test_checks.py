"""Each output check accepts the program's output and rejects an altered one.

Run from the repository root:  python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from momentforge.cli import main as cli_main  # noqa: E402


def _bump(text: str, by=Fraction(1, 997)) -> str:
    return str(Fraction(text) + by)


def _set(path, fn):
    """Mutation that replaces result[path...] by fn(old value)."""

    def mutate(result):
        node = result
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]])

    return mutate


def _decimal_bump(text: str) -> str:
    return repr(float(text) * (1 + 1e-9) + 1e-12)


def _move_count(result):
    """Move one configuration from the lowest to the next value: same total, other moments."""
    hist = result["histogram"]
    keys = sorted(hist, key=int)
    low, nxt = keys[0], keys[1]
    if hist[low] == 1:
        del hist[low]
    else:
        hist[low] -= 1
    hist[nxt] += 1


def _add_configuration(result):
    hist = result["histogram"]
    key = sorted(hist, key=int)[-1]
    hist[key] += 1
    result["total"] = str(int(result["total"]) + 1)


def _edit_polynomial_text(result):
    result["polynomial"] = result["polynomial"].replace(" + ", " - ", 1)


CASES = [
    (
        ["pgf", "--family", "invmaj", "--n", "6"], checks.check_pgf_invmaj, {"n": 6},
        [_set(["coefficients", 3], _bump), _edit_polynomial_text],
    ),
    (
        ["pgf", "--family", "boolean", "--n", "3"], checks.check_pgf_boolean, {"n": 3},
        [_set(["coefficients", 1], _bump), _edit_polynomial_text],
    ),
    (
        ["pgf", "--family", "domino", "--m", "1", "--n", "7"], checks.check_pgf_domino_row, {"n": 7},
        [_set(["coefficients", 0], _bump), _set(["params", "n"], lambda n: n + 1)],
    ),
    (
        ["pgf", "--family", "domino", "--m", "2", "--n", "3"], checks.check_pgf_domino_board,
        {"m": 2, "n": 3},
        [_set(["coefficients", 0], _bump), _edit_polynomial_text],
    ),
    (
        ["approx-h", "--n", "3", "--k", "0", "--with-polynomial"], checks.check_approx_h_k0, {"n": 3},
        [_set(["probabilities", 2], _bump), _set(["variance"], _bump), _edit_polynomial_text],
    ),
    (
        ["moments", "--family", "domino", "--m", "3", "--n", "4", "--r", "6"], checks.check_domino_raw,
        {"m": 3, "n": 4, "r": 6},
        [_set(["entries", 4], _bump), _set(["entries", 1], _bump), _set(["scaled_entries", 5], _bump)],
    ),
    (
        ["central", "--family", "domino", "--m", "3", "--n", "4", "--r", "6"],
        checks.check_domino_central, {"m": 3, "n": 4, "r": 6},
        [_set(["entries", 4], _bump), _set(["entries", 3], _bump), _set(["entries", 2], _bump)],
    ),
    (
        ["normality", "--family", "domino", "--m", "3", "--n-grid", "5,10,20", "--r-max", "6"],
        checks.check_normality_domino, {"m": 3, "grid": [5, 10, 20], "r": 6},
        [
            _set(["rows", 4, "m_r"], _decimal_bump),
            _set(["rows", 20, "deviation"], _decimal_bump),
            _set(["verdicts", "6"], lambda v: not v),
        ],
    ),
    (
        ["binomial-moments", "--family", "invmaj", "--n", "30", "--r", "6"],
        checks.check_binomial_invmaj, {"n": 30, "r": 6},
        [_set(["entries", 5], _bump), _set(["entries", 2], _bump)],
    ),
    (
        ["normality", "--family", "invmaj", "--n-grid", "10,20,40", "--r-max", "6"],
        checks.check_normality_invmaj, {"grid": [10, 20, 40], "r": 6},
        [_set(["rows", 6, "m_r"], _decimal_bump), _set(["rows", 6, "target"], lambda t: "16")],
    ),
    (
        ["mgf-limit", "--family", "invmaj", "--n", "50", "--t-steps", "5"], checks.check_mgf_invmaj,
        {"n": 50, "steps": 5},
        [
            _set(["rows", 1, "deviation"], lambda d: repr(float(d) * (1 + 1e-6))),
            _set(["sup_deviation"], lambda d: repr(float(d) * (1 + 1e-6))),
        ],
    ),
    (
        ["central", "--family", "boolean", "--n", "5", "--k", "0", "--r", "8"],
        checks.check_central_boolean, {"n": 5, "r": 8},
        [_set(["entries", 6], _bump), _set(["closed_forms", 4], lambda t: t.replace("3/16", "3/17"))],
    ),
    (
        ["fit", "--family", "schur", "--r", "2", "--c", "2", "--period", "6", "--degree", "4",
         "--n-min", "13", "--n-max", "54", "--verify", "2"],
        checks.check_fit_schur, {"c": 2, "n_min": 13, "n_max": 54},
        [
            _set(["branches", 1, "polynomial"], lambda t: t.replace("1/256*n^4", "1/255*n^4")),
            _set(["branches", 2, "polynomial"], lambda t: t + " + 1/1000"),
        ],
    ),
    (
        ["oracle", "--family", "domino", "--m", "2", "--n", "3", "--r-max", "6"],
        checks.check_oracle_domino, {"m": 2, "n": 3, "r": 6},
        [_move_count, _add_configuration, _set(["moments", 3], _bump)],
    ),
    (
        ["oracle", "--family", "schur", "--n", "8", "--c", "2"], checks.check_oracle_schur,
        {"n": 8, "c": 2},
        [_move_count, _add_configuration, _set(["moments", 4], _bump)],
    ),
    (
        ["oracle", "--family", "invmaj", "--n", "5"], checks.check_oracle_invmaj, {"n": 5},
        [_move_count, _set(["joint", "0,0"], lambda c: c + 1), _set(["moments", 2], _bump)],
    ),
    (
        ["oracle", "--family", "boolean", "--n", "3", "--k", "1"], checks.check_oracle_boolean,
        {"n": 3, "k": 1},
        [_move_count, _add_configuration],
    ),
    (
        ["oracle", "--family", "boolean", "--n", "4", "--k", "1", "--samples", "2000", "--seed", "5"],
        checks.check_sample_boolean, {"n": 4, "k": 1, "samples": 2000, "seed": 5},
        [
            _add_configuration,
            _set(["seed"], lambda s: s + 1),
            lambda r: r.update(histogram={"30": 2000}, moments=[str(30**q) for q in range(5)]),
        ],
    ),
]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("outputs")
    results = {}
    for i, (argv, *_rest) in enumerate(CASES):
        path = out_dir / f"{i}.json"
        assert cli_main([*argv, "--out", str(path)]) == 0
        results[i] = json.loads(path.read_text())["result"]
    return results


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(c[0][:3]) for c in CASES])
def test_check_accepts_output_and_rejects_each_alteration(outputs, index):
    argv, check, params, mutations = CASES[index]
    result = outputs[index]
    assert check(copy.deepcopy(result), **params) == []
    for mutate in mutations:
        altered = copy.deepcopy(result)
        mutate(altered)
        assert altered != result
        try:
            errors = check(altered, **params)
        except (KeyError, ValueError, IndexError, ZeroDivisionError):
            errors = ["raised"]
        assert errors, f"{mutate} went unnoticed"


def test_checker_rejects_schema_violations_and_other_subcommands(tmp_path):
    schema = json.loads((ROOT / "src/momentforge/schemas/output.schema.json").read_text())
    checker = run.Checker(schema)
    argv, check, params, _ = CASES[0]
    job = run.workloads.Job("job", tuple(argv), check, params)
    path = tmp_path / "out.json"
    assert cli_main([*argv, "--out", str(path)]) == 0
    assert checker.check(job, path) == []
    payload = json.loads(path.read_text())
    payload["subcommand"] = "central"
    path.write_text(json.dumps(payload))
    assert any("subcommand" in e for e in checker.check(job, path))
    payload["result"]["coefficients"][0] = "one half"
    path.write_text(json.dumps(payload))
    assert any("schema" in e for e in checker.check(job, path))
    path.write_text("{not json")
    assert any("not JSON" in e for e in checker.check(job, path))


def test_mahonian_and_cumulant_helpers_agree_on_small_cases():
    assert checks.mahonian_counts(4) == [1, 3, 5, 6, 5, 3, 1]
    # central moments of inv over S_3: values 0,1,1,2,2,3 with mean 3/2
    values = [0, 1, 1, 2, 2, 3]
    want = [sum((Fraction(v) - Fraction(3, 2)) ** r for v in values) / 6 for r in range(7)]
    assert checks.invmaj_central(3, 6) == want
    coins = [bin(v).count("1") for v in range(8)]  # Bin(3, 1/2) over its 8 outcomes
    want = [sum((Fraction(x) - Fraction(3, 2)) ** r for x in coins) / 8 for r in range(7)]
    assert checks.binomial_half_central(3, 6) == want
    assert checks.parse_polynomial("-q^3 + 1/2*q - 7", "q") == {3: -1, 1: Fraction(1, 2), 0: -7}


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.names += ["outer", "inner", "inner"]
    tracer.starts += [0.0, 1.0, 3.0]
    tracer.ends += [10.0, 2.0, 6.0]
    tracer.parents += [-1, 0, 0]
    assert tracer.self_times() == {"outer_s": 6.0, "inner_s": 4.0}


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    per_layer = set(tracing.SETUP_METRICS + tracing.TIME_METRICS + tracing.COUNT_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == per_layer | {"trace.overhead_s"}
