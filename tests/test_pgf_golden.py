"""PGF stdout pinned byte for byte.

``data/pgf_golden`` holds the stdout and exit code of PGF argvs as they
were printed while every PGF was a polynomial of Fractions and the output
was written by ``json.dumps``: the benchmark's five ``pgf-dense`` jobs, the
oracle route (schur, total c^n), the boolean k = 1 oracle, the trivial
invmaj n = 1, an ``approx-h`` polynomial over a total that is not a power
of two, and two CSV outputs.  ``pgf --family boolean --n 12`` (17 MB) is
kept as the sha256 and length of its stdout.
"""

import hashlib
import json
from pathlib import Path

import pytest

from momentforge.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "pgf_golden"
INDEX = json.loads((GOLDEN / "index.json").read_text())


@pytest.mark.parametrize("name", sorted(INDEX))
def test_pgf_stdout_is_byte_identical(name, capsys):
    entry = INDEX[name]
    assert main(entry["argv"]) == entry["exit"]
    out = capsys.readouterr().out.encode()
    if "sha256" in entry:
        assert (len(out), hashlib.sha256(out).hexdigest()) == (entry["bytes"], entry["sha256"])
    else:
        assert out == (GOLDEN / f"{name}.stdout").read_bytes()
