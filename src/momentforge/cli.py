"""Batch command-line frontend with machine-readable JSON/CSV output.

Every subcommand is a body that only computes its result; one runner
(``_subcommand``) times it, writes the result to stdout (or ``--out``) and
a one-line run manifest to stderr, and maps its failures to exit codes.
Re-running with the manifest's parameters reproduces byte-identical
results.  Exit codes, the same for every subcommand: 0 success, 1 usage
error (a command line click refuses, a parameter outside a family's domain,
a request past a size guard), 2 validation failure (a failed internal
check, e.g. a fit that misses a verification point).  Families are looked
up in ``families.FAMILIES``; only ``identities`` and ``approx-h``, which
serve the boolean family alone, call a family module directly.  Each is
weighed by the guard of what it builds: ``identities`` builds one table
of polynomials, refused past ``SYMBOLIC_ORDER_GUARD``, and H_n(q) is a
closed-form PGF, refused past ``PGF_GUARD`` before it is built.

The output is written in one walk (``_pieces``): it yields the JSON text
as ``json.dumps(sort_keys=True, indent=2)`` writes it, but with each exact
value (a ``_Text``) left unformatted; it writes only what the bodies
return, and refuses (TypeError) a bare exact value.  The runner charges
the integers of the exact values to the one print guard,
``PRINT_TOTAL_GUARD`` (``_charge_print``), and only then does ``_emit``
format each value and join the pieces.  A bare int (a parameter, an
order, a count) is written as it is walked, uncharged, so it must stay
small.  A PGF is a ``Polynomial`` of integer counts over one total: its
coefficients are reduced and formatted once, and the same strings serve
both its polynomial text and its coefficient list.  A body returns its
CSV output as one table, a header and rows of the same values, which the
runner writes after the same charge.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

import click
import mpmath

import momentforge.families as families
from momentforge import __version__
from momentforge.errors import ConsistencyError, MomentForgeError
from momentforge.families import boolean, common
from momentforge.families.common import SYMBOL_LEGEND, TGrid, charge, grid_point, request_budget
from momentforge.fitter import FitSpec, check_fit_size, fit_quasi_polynomial
from momentforge.moment_algebra import check_grid, gaussian_moment, normality_report
from momentforge.poly_series import Polynomial, QuasiPolynomial
from momentforge import oracle as oracle_mod

_encode = json.encoder.encode_basestring_ascii


# Bound on sum(digits^2) over every integer an output prints, digits from
# bit lengths.  CPython formats an int in time quadratic in its length, 1.7e-11
# to 1.8e-11 s a unit on one Intel Xeon core (str of one integer of 10^4 to
# 10^5 digits).  moments --family invmaj --n 20000 --r 100, 6.2e11, took
# 11 s as a whole process before this guard; inside it, moments --family
# domino --m 1 --n 742804 --r 0 (2^742804 printed twice) takes 2.2-2.3 s.
PRINT_TOTAL_GUARD = 10**11


class _Text:
    """An exact value of the output, or a row's coefficient of one degree.

    ``_emit`` formats it once ``_charge_print`` has weighed them all.
    """

    __slots__ = ("value", "degree")

    def __init__(self, value: int | Fraction | Polynomial | QuasiPolynomial, degree: int | None = None):
        self.value = value
        self.degree = degree

    def integers(self) -> Sequence[int]:
        """The integers the text is written with: each number's numerator and denominator, a row's reduced ones."""
        if self.degree is not None:
            return self.value.reduced()[self.degree]
        return _integers(self.value)

    def __str__(self) -> str:
        x = self.value
        if self.degree is not None:
            return x.texts()[self.degree]
        return x.to_text() if isinstance(x, (Polynomial, QuasiPolynomial)) else str(x)


def _integers(x) -> list[int]:
    """The numerator and denominator of x, or of its coefficients and branches in turn."""
    if isinstance(x, Polynomial) and x.is_numeric():
        return [i for pair in x.reduced() for i in pair]
    parts = x.nums if isinstance(x, Polynomial) else x.branches if isinstance(x, QuasiPolynomial) else None
    return [x.numerator, x.denominator] if parts is None else [i for part in parts for i in _integers(part)]


def _walk(o, newline: str, out: list) -> None:
    """Append to ``out`` the text of o as ``json.dumps(o, sort_keys=True, indent=2)`` writes it.

    Text is appended as strings, and each ``_Text`` as itself, to be
    charged and formatted later.  Only what the bodies return is written:
    str, None, bool, int, a finite float, a list, a dict with str keys and
    a ``_Text``; anything else, a bare exact value included, raises
    TypeError, so no rational is formatted uncharged (a bare int is, so
    it must be small).  Dict items are sorted on their keys, and strings
    are escaped as the encoder escapes them.
    """
    if isinstance(o, str):
        out.append(_encode(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float) and math.isfinite(o):
        out.append(float.__repr__(o))
    elif isinstance(o, list):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        out.append("[" + inner)
        for i, value in enumerate(o):
            if i:
                out.append(comma)
            if value.__class__ is _Text:
                out.append(value)
            else:
                _walk(value, inner, out)
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        out.append("{" + inner)
        for i, (key, value) in enumerate(sorted(o.items())):
            if not isinstance(key, str):
                raise TypeError(f"an output key must be a str, not {type(key).__name__}")
            if i:
                out.append(comma)
            out.append(_encode(key) + ": ")
            _walk(value, inner, out)
        out.append(newline + "}")
    elif isinstance(o, _Text):
        out.append(o)
    else:
        raise TypeError(f"an output cannot hold a {type(o).__name__}: exact values go in a _Text")


def _pieces(payload) -> list:
    """The JSON text of the payload, in pieces: strings, and the ``_Text`` leaves unformatted."""
    out: list = []
    _walk(payload, "\n", out)
    return out


def _joined(pieces: list) -> str:
    """The JSON text of the pieces, each leaf formatted as a string.

    A leaf's text has only digits, symbols, signs, brackets and spaces,
    which JSON writes as they are, so it is quoted without a scan.
    """
    return "".join([p if p.__class__ is str else f'"{p}"' for p in pieces])


def _print_weight(bit_lengths: Iterable[float]) -> int:
    """sum(digits^2) of integers of these bit lengths, about (bits log10 2)^2 each."""
    return int(sum(b * b for b in bit_lengths) * math.log10(2) ** 2)


def _charge_print(pieces: list) -> None:
    """Charge the integers the output's leaves print to PRINT_TOTAL_GUARD, from bit lengths, before any digit is formatted."""
    integers = [i for piece in pieces if piece.__class__ is _Text for i in piece.integers()]
    charge(
        _print_weight(i.bit_length() for i in integers), PRINT_TOTAL_GUARD, "PRINT_TOTAL_GUARD",
        f"the {len(integers)} printed integers weigh sum(digits^2)", summed=False,
    )


def _symbols(x) -> set[str]:
    """The symbols written in x's text: those of its polynomials with a term of degree >= 1."""
    if not isinstance(x, Polynomial):
        return set()
    return ({x.symbol} if x.degree >= 1 else set()).union(*map(_symbols, x.nums))


def _emit(ctx_params: dict, subcommand: str, pieces: list, table: tuple, started: float) -> None:
    """Write the output: the JSON pieces with each leaf formatted, or the CSV ``table``; then the manifest.

    An ``--out`` file that cannot be opened or written is a click.UsageError naming ``--out``.
    """
    fmt = ctx_params["format"]
    out_path = ctx_params["out"]
    # the interpreter's own int-to-str digit limit (4300 on Python >= 3.10.7)
    # is lifted while the output is formatted; PRINT_TOTAL_GUARD takes its place
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            text = _joined(pieces) + "\n"
        else:
            text = _csv_table(*table)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.UsageError(f"cannot write --out {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
    manifest = {
        "subcommand": subcommand,
        "parameters": {
            k: v for k, v in sorted(ctx_params.items()) if k not in ("out", "format") and v is not None
        },
        "format": fmt,
        "seed": ctx_params.get("seed"),
        "tool_version": __version__,
        "output": out_path or "stdout",
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    sys.stderr.write(json.dumps(manifest, sort_keys=True) + "\n")


def _csv_table(header: list[str], rows: Iterable[Sequence]) -> str:
    """The CSV text of the header and rows, each cell written as its ``str``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _family_params(family: str, **given) -> tuple[families.Family, dict]:
    """The family's table entry and its parameters, defaults filled in."""
    entry = families.validate_family(family)
    return entry, entry.resolve(given)


def _family_options(fn):
    """--family and the family parameters; families fill in their own defaults."""
    for name, text in (("k", "boolean cube dimension (default 0)"), ("m", "domino rows (default 1)"), ("c", "schur colors (default 2)")):
        fn = click.option(f"--{name}", type=int, default=None, help=text)(fn)
    fn = click.option("--n", type=int, required=True)(fn)
    return click.option("--family", required=True, help=" | ".join(families.FAMILIES))(fn)


def _common_options(fn):
    fn = click.option("--format", "format", type=click.Choice(["json", "csv"]), default="json", show_default=True, help="Output format.")(fn)
    fn = click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None, help="Write the result to this path instead of stdout.")(fn)
    return fn


@click.group(name="momentforge")
@click.version_option(__version__, prog_name="momentforge")
def cli():
    """Exact moments of combinatorial statistics, with oracles and fits."""


def _subcommand(name: str):
    """Register the decorated body as subcommand ``name``, run by the one runner.

    The body takes its own options and returns data only: the manifest's
    parameters, the JSON result (exact values as ``_Text``s) and the CSV
    table, a header and its rows (an iterable, read only for a CSV output).
    The runner is the one writer of every result.  It adds --out and
    --format, starts the clock, opens the request's budget, walks the result once into its text pieces
    (``_pieces``), charges what they print (``_charge_print``), maps a
    failure to its exit code (a ConsistencyError to 2 with ``validation failure:``,
    any other MomentForgeError or a ValueError to 1 with ``usage error:``) and
    writes the output through ``_emit``.  A click.UsageError, a body's or ``_emit``'s, goes to ``main``.
    """

    def register(body):
        def run(format, out, **options) -> int:
            started = time.monotonic()
            try:
                with request_budget():
                    params, result, table = body(**options)
                    pieces = _pieces({"subcommand": name, "result": result})
                    _charge_print(pieces)
            except ConsistencyError as exc:
                sys.stderr.write(f"validation failure: {exc}\n")
                return 2
            except (MomentForgeError, ValueError) as exc:
                sys.stderr.write(f"usage error: {exc} (try: momentforge {name} --help)\n")
                return 1
            _emit({"format": format, "out": out, **params}, name, pieces, table, started)
            return 0

        run.__doc__ = body.__doc__
        # --out and --format go first in the list, so --help shows them last
        _common_options(run).__click_params__ += body.__click_params__
        return cli.command(name=name)(run)

    return register


def _moment_command(kind: str, subcommand: str) -> None:
    @_subcommand(subcommand)
    @_family_options
    @click.option("--r", "--r-max", "r_max", type=int, default=4, show_default=True, help="Highest moment order.")
    def command(family, n, c, m, k, r_max):
        entry, params = _family_params(family, n=n, c=c, m=m, k=k)
        # the texts first: past SYMBOLIC_ORDER_GUARD they refuse before any number is built
        closed_forms = [_Text(e) for e in families.closed_forms(family, kind, r_max, params) or ()]
        vec = families.moment_vector(family, kind, r_max, params)
        result = {
            "family": family,
            "params": params,
            "kind": vec.kind,
            "about_mean": vec.about_mean,
            "entries": [_Text(e) for e in vec.entries],
        }
        if closed_forms:
            result["closed_forms"] = closed_forms
            written = set().union(*(_symbols(t.value) for t in closed_forms))
            result["symbols"] = {s: meaning for s, meaning in SYMBOL_LEGEND.items() if s in written}
        if kind == "raw":
            # printed at least twice (the size and scaled_entries[0]): a lower bound on the
            # output's weight refuses a size before it is built; _charge_print decides exactly.
            # A bound past 10^7 bits, alone past the guard, counts as 10^7 so its square stays
            # finite; so does one past float range, whose space_bits overflows.
            try:
                bits = min(entry.space_bits(params), 10**7)
            except OverflowError:
                bits = 10**7
            charge(
                _print_weight([bits] * 2), PRINT_TOTAL_GUARD, "PRINT_TOTAL_GUARD",
                "a lower bound on sum(digits^2) of the sample-space size, printed twice", summed=False,
            )
            space = entry.space_size(params)
            result["sample_space_size"] = _Text(space)
            result["scaled_entries"] = [_Text(e * space) for e in vec.entries]
        parameters = {"family": family, **params, "r_max": r_max}
        return parameters, result, (["r", "value"], enumerate(result["entries"]))


_moment_command("raw", "moments")
_moment_command("central", "central")
_moment_command("binomial", "binomial-moments")


@_subcommand("pgf")
@_family_options
def pgf_cmd(family, n, c, m, k):
    """Exact probability generating function in canonical text."""
    entry, params = _family_params(family, n=n, c=c, m=m, k=k)
    row, source = entry.pgf(params)
    coeffs = [_Text(row, d) for d in range(len(row.nums))]
    result = {
        "family": family,
        "params": params,
        "polynomial": _Text(row),
        "coefficients": coeffs,
        "source": source,
    }
    return {"family": family, **params}, result, (["degree", "coefficient"], enumerate(coeffs))


@_subcommand("normality")
@click.option("--family", required=True, help=" | ".join(families.FAMILIES))
@click.option("--n-grid", required=True, help="Comma-separated ascending n values, e.g. 11,101,1001")
@click.option("--m", type=int, default=None, help="domino rows (default 1)")
@click.option("--k", type=int, default=None, help="boolean cube dimension (default 0)")
@click.option("--r-max", type=int, default=8, show_default=True)
@click.option("--threshold", type=float, default=0.05, show_default=True)
@click.option("--precision", type=int, default=50, show_default=True, help="Significant digits.")
def normality_cmd(family, n_grid, m, k, r_max, threshold, precision):
    """Normalized moments vs Gaussian targets along an n-grid, from what central serves."""
    try:
        ns = [int(x) for x in n_grid.split(",")]
    except ValueError as exc:
        raise click.UsageError(f"bad --n-grid {n_grid!r}: {exc}") from exc
    if not math.isfinite(threshold):
        raise click.UsageError("need a finite --threshold")
    _, params = _family_params(family, m=m, k=k)
    # the grid, its point count and its precision are checked before any of its points is built
    check_grid(ns)
    charge(len(ns), common.GRID_POINTS_GUARD, "GRID_POINTS_GUARD", "the normality grid's points")
    digits = common.normality_digits(len(ns), precision)
    # largest n first (the grid ascends), so that a grid past its budget stops at the same
    # point, "down to n = ...", whatever its routes; each point is charged to the grid's one budget
    grid = []
    for n in reversed(ns):
        grid_point(n)
        grid.append((n, families.moment_vector(family, "central", r_max, {**params, "n": n})))
    values, verdicts = normality_report(grid[::-1], r_max, threshold=threshold, dps=precision)
    rows = [
        {"r": r, "n": n, "m_r": mpmath.nstr(m_r, 17), "target": str(target), "deviation": mpmath.nstr(dev, 17)}
        for r, n, m_r, target, dev in values
    ]
    result = {
        "family": family,
        "params": params,
        "threshold": threshold,
        "precision_digits": digits,
        "rows": rows,
        "verdicts": {str(r): ok for r, ok in enumerate(verdicts)},
    }
    # the family parameters normality takes: a Schur grid's c is resolved, not an option
    taken = {key: value for key, value in params.items() if key in ("m", "k")}
    parameters = {"family": family, "n_grid": n_grid, **taken, "r_max": r_max,
                  "threshold": threshold, "precision": precision}
    params_text = ";".join(f"{key}={value}" for key, value in sorted(params.items()))
    header = ["family", "params", "r", "n", "m_r", "target", "deviation", "verdict"]
    return parameters, result, (header, ([family, params_text, *row.values(), verdicts[row["r"]]] for row in rows))


# mgf-limit's --family: a FAMILIES entry with an mgf route and the parameters
# it fixes; board1n is the domino family on a 1-by-n board
_MGF_FAMILIES = {"invmaj": ("invmaj", {}), "board1n": ("domino", {"m": 1})}


@_subcommand("mgf-limit")
@click.option("--family", type=click.Choice(list(_MGF_FAMILIES)), required=True)
@click.option("--n", type=int, required=True)
@click.option("--t-min", type=float, default=-2.0, show_default=True)
@click.option("--t-max", type=float, default=2.0, show_default=True)
@click.option("--t-steps", type=int, default=17, show_default=True)
@click.option("--precision", type=int, default=50, show_default=True, help="Significant digits.")
def mgf_limit_cmd(family, n, t_min, t_max, t_steps, precision):
    """Deviation of G_n(e^{t/sigma}) from e^{t^2/2} on a t grid."""
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise click.UsageError("need finite --t-min and --t-max")
    if t_steps < 2 or t_max <= t_min:
        raise click.UsageError("need t-min < t-max and at least 2 steps")
    lo, hi = Fraction(t_min).limit_denominator(10**6), Fraction(t_max).limit_denominator(10**6)
    name, fixed = _MGF_FAMILIES[family]
    entry, params = _family_params(name, n=n, **fixed)
    sup, rows = entry.mgf(params, TGrid(lo, hi, t_steps), precision)
    with mpmath.workdps(max(precision, 50)):
        row_dicts = [
            {"t": mpmath.nstr(t, 17), "deviation": mpmath.nstr(d, 17)} for t, d in rows
        ]
        result = {
            "family": family,
            "n": n,
            "precision_digits": max(precision, 50),
            "sup_deviation": mpmath.nstr(sup, 17),
            "rows": row_dicts,
        }
    parameters = {"family": family, "n": n, "t_min": t_min, "t_max": t_max,
                  "t_steps": t_steps, "precision": precision}
    return parameters, result, (["t", "deviation"], ([r["t"], r["deviation"]] for r in row_dicts))


@_subcommand("oracle")
@_family_options
@click.option("--r-max", type=int, default=4, show_default=True)
@click.option("--samples", type=int, default=None, help="Boolean family: draw this many samples instead of exhausting.")
@click.option("--seed", type=int, default=None, help="PRNG seed for sampling mode (Mersenne Twister).")
def oracle_cmd(family, n, c, m, k, r_max, samples, seed):
    """Exhaustive (or seeded-sample) histogram plus exact moments."""
    entry, params = _family_params(family, n=n, c=c, m=m, k=k)
    if samples is None:
        hist, extra = entry.enumerate(params)
    elif entry.sample is None:
        raise click.UsageError(f"family {family!r} has no sampling mode; drop --samples")
    elif seed is None:
        raise click.UsageError("sampling mode needs --seed for reproducibility")
    else:
        hist, extra = entry.sample(params, samples, seed), {}
    # E[X^r] >= max^r / total: before any moment is built, its reduced numerator is
    # charged as r (bit_length(max) - 1) - bit_length(total) bits.  The bound is summed
    # to order bit_length(total) + 10^5 at most, where it is past the guard already.
    top, below = max(hist.counts).bit_length() - 1, hist.total.bit_length()
    orders = range(below // top + 1, min(r_max, below + 10**5) + 1) if top > 0 else ()
    charge(
        _print_weight(r * top - below for r in orders), PRINT_TOTAL_GUARD, "PRINT_TOTAL_GUARD",
        "a lower bound on sum(digits^2) of the moments' numerators, from max^r / total", summed=False,
    )
    moments = oracle_mod.histogram_moments(hist, r_max)
    result = {
        "family": family,
        "params": params,
        "mode": "exhaustive" if samples is None else "sample",
        "seed": seed,
        "samples": samples,
        "total": _Text(hist.total),
        "histogram": {str(v): cnt for v, cnt in hist.counts.items()},
        "moments": [_Text(e) for e in moments.entries],
        **extra,
    }
    parameters = {"family": family, **params, "r_max": r_max, "samples": samples, "seed": seed}
    return parameters, result, (["value", "count"], sorted(hist.counts.items()))


@_subcommand("fit")
@click.option("--family", type=click.Choice(["schur"]), default="schur", show_default=True)
@click.option("--r", type=click.IntRange(1, 2), default=2, show_default=True, help="Moment order to fit (schur: 1 or 2).")
@click.option("--c", type=int, default=2, show_default=True)
@click.option("--period", type=int, required=True)
@click.option("--degree", type=int, required=True)
@click.option("--n-min", type=int, required=True)
@click.option("--n-max", type=int, required=True)
@click.option("--verify", type=int, default=3, show_default=True, help="Held-out points per residue class.")
def fit_cmd(family, r, c, period, degree, n_min, n_max, verify):
    """Fit a quasi-polynomial to enumerated moment data and verify exactly."""
    if n_min < 1 or n_max < n_min:
        raise click.UsageError("need 1 <= n-min <= n-max")
    check_fit_size(period, degree, n_max)
    data = [
        (n, families.moment_vector(family, "raw", r, {"n": n, "c": c}).entries[r])
        for n in range(n_min, n_max + 1)
    ]
    res = fit_quasi_polynomial(FitSpec(period=period, degree=degree, samples=tuple(data), verify_count=verify))
    quasi = res.quasi
    result = {
        "family": family,
        "params": {"r": r, "c": c},
        "quasi_polynomial": _Text(quasi),
        "branches": [
            {"residue": j, "polynomial": _Text(b)} for j, b in enumerate(quasi.branches)
        ],
        "provenance": res.provenance,
    }
    parameters = {"family": family, "r": r, "c": c, "period": period, "degree": degree,
                  "n_min": n_min, "n_max": n_max, "verify": verify}
    rows = ([b["residue"], b["polynomial"]] for b in result["branches"])
    return parameters, result, (["residue", "polynomial"], rows)


@_subcommand("identities")
@click.option("--r-max", type=int, default=10, show_default=True)
def identities_cmd(r_max):
    """Check the central-coefficient identity battery for the 0-cube count."""
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    # E[(X - mu)^r] in W = 2^n, refused past SYMBOLIC_ORDER_GUARD before it is built
    central = common.half_binomial_moments(Polynomial.variable("W"), r_max, central=True)
    rows = []
    for r in range(r_max + 1):
        for t in range(r + 1):
            if r % 2 == 1 or t < r // 2:
                expected = Fraction(0)
            elif r % 2 == 0 and t == r // 2:
                expected = gaussian_moment(r) / 4 ** (r // 2)
            else:
                continue  # nonzero generic coefficients are not identity rows
            value = central[r].coefficient(r - t)
            rows.append({"r": r, "t": t, "value": _Text(value), "expected": _Text(expected), "ok": value == expected})
    missed = [(w["r"], w["t"]) for w in rows if not w["ok"]]
    if missed:
        raise ConsistencyError(f"identity battery found a mismatch at (r, t) in {missed}")
    result = {"r_max": r_max, "rows": rows, "all_ok": True}
    header = ["r", "t", "value", "expected", "ok"]
    return {"r_max": r_max}, result, (header, ([w[key] for key in header] for w in rows))


@_subcommand("approx-h")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--with-polynomial", is_flag=True, help="Include the full H_n(q) polynomial (small n only).")
def approx_h_cmd(n, k, with_polynomial):
    """Independence approximation H_n(q): exact moments, optional polynomial."""
    # the polynomial first: past PGF_GUARD it is refused before the moments' sums run
    row = boolean.h_polynomial(n, k) if with_polynomial else None
    moments = boolean.h_moments(n, k)
    exact_mean = families.moment_vector("boolean", "raw", 1, {"n": n, "k": k}).entries[1]
    result = {
        "n": n,
        "k": k,
        "p": _Text(moments["p"]),
        # h_moments' E[Y] is the closed form p C(2^n, 2^k) / 2^(2^k), printed under both keys
        "mean": _Text(moments["mean"]),
        "mean_closed_form": _Text(moments["mean"]),
        "second_factorial": _Text(moments["second_factorial"]),
        "variance": _Text(moments["variance"]),
        "exact_mean": _Text(exact_mean),
    }
    keys = ("p", "mean", "mean_closed_form", "second_factorial", "variance", "exact_mean")
    if row is not None:
        result["polynomial"] = _Text(row)
        result["probabilities"] = [_Text(row, d) for d in range(len(row.nums))]
    probabilities = ([f"q^{d}", v] for d, v in enumerate(result.get("probabilities", ())))
    rows = chain(([key, result[key]] for key in keys), probabilities)
    return {"n": n, "k": k, "with_polynomial": with_polynomial}, result, (["key", "value"], rows)


def main(argv=None) -> int:
    """Entry point: the subcommand's exit code, or 1 for a command line that click refuses."""
    try:
        return cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        hint = f" (try: momentforge {exc.ctx.info_name} --help)" if exc.ctx else ""
        sys.stderr.write(f"usage error: {exc.format_message()}{hint}\n")
        return 1
    except click.ClickException as exc:
        sys.stderr.write(f"error: {exc.format_message()}\n")
        return 1
    except click.exceptions.Abort:
        sys.stderr.write("aborted\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
