"""CLI stdout pinned byte for byte, one entry per argv of ``data/*_golden``.

Each set's ``index.json`` maps a name to an argv, its exit code and its
stdout: the file ``<name>.stdout`` or, for a large output, its sha256 and
length.  Run as a script, this file prints every argv, one a line, for
CI to check that the console script prints what ``python -m momentforge``
prints.  The sets pin what earlier implementations printed, before the
code that prints it now replaced them:

* ``boolean_golden``: Binomial(N, 1/2) as the boolean 0-cube count and the
  domino forest boards each built their own symbolic tables and
  ``identities`` summed Stirling products: every boolean kind at
  ``SYMBOLIC_ORDER_GUARD``'s edge (r = 128) and one past it, numbers at
  n = 30, the k = 1 and k = 2 forms, the domino mu-forms, ``identities``
  from 0 to the guard's edge and one past it and as CSV, ``approx-h`` at
  k = 0 up to ``PGF_GUARD``'s edge and past it, and at k = 2 refused, a
  boolean ``normality`` grid and the 1-by-n MGF limit.  ``approx-h`` at
  n = 13, k = 12 as the sum over the 2^n + 1 values of m printed it, and,
  served since a printed integer past 10^5 digits is charged only to
  ``PRINT_TOTAL_GUARD``, ``approx-h`` at n = k = 14 (with and without its
  polynomial) and ``moments`` at n = 19; n = 33 is refused by that total
  before its sample space is built.
* ``console_golden``: the argvs CI compared only between the console
  script and ``python -m momentforge``, pinned from the code of that time:
  ``--version``, ``mgf-limit`` at invmaj n = 23512 (the largest n served at
  17 steps), ``moments`` of boolean k = 1 and ``binomial-moments`` of
  boolean k = 1 and invmaj n = 8, the domino 2-by-3 board's ``central``
  and the 2-by-170000 board at r = 291, Schur ``moments`` at n = 9, 20000
  (c = 3) and 50001, ``central`` at n = 10^100 (c = 3), a Schur
  ``normality`` grid to 10^8, two fits (c = 5 over n = 1..400, and r = 1
  at c = 3), the Schur, domino 3-by-4 and seeded boolean k = 2 oracles, and
  ``pgf --family invmaj --n 28`` as CSV.
* ``domino_golden``: the cell-profile transfer sweep, before the face
  sweep: every moment subcommand and normality, widths 1 to 17, boards
  past 2r+2 rows, and the last order the guard served at width 2 (the size
  term's edge) and at widths 12 and 16 (the sweep term's); and two 1-by-n
  boards whose sample-space size, past 10^5 digits, is now printed.
* ``oracle_golden``: ``oracle --family invmaj`` at n = 1..9, at n = 8 with
  ``--r-max 8`` and at n = 7 as CSV, from the plain-changes walk; the
  joint (inv, maj) histogram is printed in full, so a wrong pairing of inv
  with maj shows even where both marginals are right.
* ``pgf_golden``: every PGF as a polynomial of Fractions written by
  ``json.dumps``: the benchmark's ``pgf-dense`` jobs, the oracle route,
  the boolean k = 1 oracle, the trivial invmaj n = 1, an ``approx-h``
  polynomial over a total that is not a power of two, two CSV outputs and
  ``pgf --family boolean --n 12``.
* ``runner_golden``: ``moment_algebra.NormalityReport`` and per-subcommand
  CSV writers: the invmaj moment kinds, ``normality`` and ``mgf-limit`` as
  JSON and as CSV, ``fit``, ``moments``, ``binomial-moments`` and
  ``oracle`` as CSV, and a grid of two points, refused.
* ``schur_golden``: the step sweep of pair counts, before the closed form
  from three floor counts: ``moments`` at small n, both parities, c = 2, 3
  and 5 and n = 50000, ``central`` and ``binomial-moments``, two fits, a
  normality grid and one CSV output.
"""

import hashlib
import json
from pathlib import Path

import pytest

from momentforge.cli import main
from momentforge.families import domino

DATA = Path(__file__).resolve().parent / "data"
ENTRIES = [
    (index.parent, name, entry)
    for index in sorted(DATA.glob("*_golden/index.json"))
    for name, entry in sorted(json.loads(index.read_text()).items())
]


@pytest.mark.parametrize(
    "golden, name, entry", ENTRIES, ids=[f"{golden.name}/{name}" for golden, name, _ in ENTRIES]
)
def test_stdout_is_byte_identical(golden, name, entry, monkeypatch, capsys):
    # a face sweep cached by an earlier argv would serve this one
    monkeypatch.setattr(domino, "_SWEPT", {})
    assert main(entry["argv"]) == entry["exit"]
    out = capsys.readouterr().out.encode()
    if "sha256" in entry:
        assert (len(out), hashlib.sha256(out).hexdigest()) == (entry["bytes"], entry["sha256"])
    else:
        assert out == (golden / f"{name}.stdout").read_bytes()


if __name__ == "__main__":
    for _, _, entry in ENTRIES:
        print(" ".join(entry["argv"]))
