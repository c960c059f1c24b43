"""Runner output pinned byte for byte.

``data/runner_golden`` holds the stdout and exit code of argvs as they
were printed while ``moment_algebra.NormalityReport`` wrote the normality
output and each subcommand handed the runner its own CSV writer: the
invmaj moment kinds, ``normality`` and ``mgf-limit`` as JSON, and as CSV
``normality`` on one grid of each family (invmaj also at another
threshold and precision), ``mgf-limit``, ``fit``, ``moments``,
``binomial-moments`` and ``oracle`` (exhaustive and sampled); and a grid
of two points, refused.
"""

import json
from pathlib import Path

import pytest

from momentforge.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "runner_golden"
INDEX = json.loads((GOLDEN / "index.json").read_text())


@pytest.mark.parametrize("name", sorted(INDEX))
def test_runner_stdout_is_byte_identical(name, capsys):
    entry = INDEX[name]
    assert main(entry["argv"]) == entry["exit"]
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
