"""Binomial(N, 1/2) stdout pinned byte for byte.

``data/boolean_golden`` holds the stdout and exit code of argvs as they
were printed while the boolean 0-cube count and the domino forest boards
each built their own symbolic tables, and ``identities`` summed Stirling
products: every boolean kind at ``SYMBOLIC_ORDER_GUARD``'s edge (r = 128,
kept as the sha256 and length of its stdout) and one past it, numbers at
n = 30, the k = 1 and k = 2 forms, the domino mu-forms, ``identities`` at
0, 10 and 60, one past its guard and as CSV, ``approx-h`` at k = 0, a
boolean ``normality`` grid and the 1-by-n MGF limit.
"""

import hashlib
import json
from pathlib import Path

import pytest

from momentforge.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "boolean_golden"
INDEX = json.loads((GOLDEN / "index.json").read_text())


@pytest.mark.parametrize("name", sorted(INDEX))
def test_boolean_stdout_is_byte_identical(name, capsys):
    entry = INDEX[name]
    assert main(entry["argv"]) == entry["exit"]
    out = capsys.readouterr().out.encode()
    if "sha256" in entry:
        assert (len(out), hashlib.sha256(out).hexdigest()) == (entry["bytes"], entry["sha256"])
    else:
        assert out == (GOLDEN / f"{name}.stdout").read_bytes()
