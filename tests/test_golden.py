"""CLI stdout pinned byte for byte, one entry per argv of ``data/*_golden``.

Each set's ``index.json`` maps a name to an argv, its exit code and its
stdout: the file ``<name>.stdout`` or, for a large output, its sha256 and
length.  Every entry that a subcommand serves (exit 0) must also end its
stderr with a manifest naming the subcommand, print JSON that
``output.schema.json`` validates and names it too, and, if its stdout is
a file, print the same again when re-run from the manifest's parameters.
Run as a script, this file prints every entry's exit code and argv, one
a line, for CI to check that the console script and ``python -m
momentforge`` both exit with that code and print the same.  The sets
pin what earlier implementations printed, before the code that prints it
now replaced them:

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
  past 2r+2 rows (boards past b + 2 rows now extrapolate the log F
  coefficients of smaller ones), and the last order the guard served at
  width 2 (the size term's edge) and at widths 12 and 16 (the sweep
  term's); two 1-by-n boards whose sample-space size, past 10^5 digits, is
  now printed; from the fit in the board length with its guard lifted,
  six boards that guard refused and the extrapolation serves: 20x30 at
  r = 10, 17x17 at r = 14, 30x30 and 3x10^7 at r = 8, 12x300000 at r = 38
  and 4x1000 at r = 400; and two high orders just past b + 2 rows that it
  served, 2x202 at r = 391 and 3x300 at r = 590.
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
* ``smoke_golden``: the argvs ``test_cli.py`` ran only as whole processes,
  for schema validity and run-to-run identity: ``moments`` of the domino
  2-by-3 board, ``central`` of boolean n = 3, ``binomial-moments`` and
  ``pgf`` of invmaj (n = 6 and 4), a domino ``normality`` grid, the Schur
  n = 6 oracle, two fits and ``identities`` to r = 6; and ``oracle --family
  domino --m 4 --n 5 --r-max 4000`` as printed when each moment raised
  every value to its power anew.
"""

import hashlib
import json
from pathlib import Path

import pytest

from momentforge.cli import cli

DATA = Path(__file__).resolve().parent / "data"
ENTRIES = {
    f"{index.parent.name}/{name}": (index.parent, name, entry)
    for index in sorted(DATA.glob("*_golden/index.json"))
    for name, entry in sorted(json.loads(index.read_text()).items())
}
SERVED = {key for key, (_, _, entry) in ENTRIES.items() if entry["exit"] == 0 and entry["argv"][0] in cli.commands}
# a served entry whose stdout is a file is re-run from the manifest its run printed
RERUNS = {key: e for key, e in ENTRIES.items() if key in SERVED and "sha256" not in e[2]}
MANIFESTS = {}


def manifest_argv(manifest):
    """The argv a manifest records: its subcommand, each parameter as an option, and its format."""
    argv = [manifest["subcommand"]]
    for key, value in manifest["parameters"].items():
        option = "--" + key.replace("_", "-")
        if value is True:
            argv.append(option)
        elif value is not False:
            argv += [option, str(value)]
    return [*argv, "--format", manifest["format"]]


@pytest.mark.parametrize("golden, name, entry", ENTRIES.values(), ids=list(ENTRIES))
def test_stdout_is_byte_identical(golden, name, entry, run, served):
    proc = run(*entry["argv"])
    assert proc.code == entry["exit"], proc.err
    out = proc.out.encode()
    if "sha256" in entry:
        assert (len(out), hashlib.sha256(out).hexdigest()) == (entry["bytes"], entry["sha256"])
    else:
        assert out == (golden / f"{name}.stdout").read_bytes()
    if f"{golden.name}/{name}" in SERVED:
        _, MANIFESTS[f"{golden.name}/{name}"] = served(proc)


@pytest.mark.parametrize("golden, name, entry", RERUNS.values(), ids=list(RERUNS))
def test_manifest_reruns_the_entry(golden, name, entry, run, served):
    manifest = MANIFESTS.get(f"{golden.name}/{name}") or served(run(*entry["argv"]))[1]
    rerun = run(*manifest_argv(manifest))
    assert (rerun.code, rerun.out.encode()) == (0, (golden / f"{name}.stdout").read_bytes()), rerun.err


if __name__ == "__main__":
    for _, _, entry in ENTRIES.values():
        print(entry["exit"], " ".join(entry["argv"]))
