"""Domino stdout pinned byte for byte.

``data/domino_golden`` holds the stdout and exit code of about twenty domino
argvs as the cell-profile transfer sweep printed them, before the face
sweep replaced it: every moment subcommand and normality, widths 1 to 17,
boards past 2r+2 rows, and the last order the guard served at width 2 (the
size term's edge) and at widths 12 and 16 (the sweep term's).
"""

import json
from pathlib import Path

import pytest

from momentforge.cli import main
from momentforge.families import domino

GOLDEN = Path(__file__).resolve().parent / "data" / "domino_golden"
INDEX = json.loads((GOLDEN / "index.json").read_text())


@pytest.mark.parametrize("name", sorted(INDEX))
def test_domino_stdout_is_byte_identical(name, monkeypatch, capsys):
    monkeypatch.setattr(domino, "_SWEPT", {})
    entry = INDEX[name]
    assert main(entry["argv"]) == entry["exit"]
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
