"""Permutation-oracle stdout pinned byte for byte.

``data/oracle_golden`` holds the stdout and exit code of ``oracle --family
invmaj`` at n = 1..9, at n = 8 with ``--r-max 8`` and at n = 7 as CSV, as
the plain-changes walk printed them before the inversion-table lanes
replaced it.  The joint (inv, maj) histogram is printed in full, so a wrong
pairing of inv with maj shows here even where both marginals are right.
"""

import json
from pathlib import Path

import pytest

from momentforge.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "oracle_golden"
INDEX = json.loads((GOLDEN / "index.json").read_text())


@pytest.mark.parametrize("name", sorted(INDEX))
def test_oracle_stdout_is_byte_identical(name, capsys):
    entry = INDEX[name]
    assert main(entry["argv"]) == entry["exit"]
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
