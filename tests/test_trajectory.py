"""The committed performance trajectory: every BENCH_*.json at the repo root has one shape."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"what", "command", "seeds", "parent_commit", "change_commit", "python", "nproc", "cpu", "summary", "runs"}


def test_there_is_a_trajectory():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_shape(path):
    data = json.loads(path.read_text())
    assert KEYS <= set(data), sorted(KEYS - set(data))
    assert data["runs"] and data["summary"]
    for run in data["runs"]:
        assert run["side"] in ("parent", "change"), run
        assert run["workload"] in data["summary"], run
