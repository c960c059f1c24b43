"""Schur stdout pinned byte for byte.

``data/schur_golden`` holds the stdout and exit code of Schur argvs as the
step sweep of pair counts printed them, before the closed form from three
floor counts replaced it: ``moments`` at small n, both parities, c = 2, 3
and 5 and the sweep's last n (50000), ``central`` and ``binomial-moments``,
the benchmark's fit and an r = 1 fit, a normality grid and one CSV output.
"""

import json
from pathlib import Path

import pytest

from momentforge.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "schur_golden"
INDEX = json.loads((GOLDEN / "index.json").read_text())


@pytest.mark.parametrize("name", sorted(INDEX))
def test_schur_stdout_is_byte_identical(name, capsys):
    entry = INDEX[name]
    assert main(entry["argv"]) == entry["exit"]
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
