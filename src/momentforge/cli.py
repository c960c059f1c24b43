"""Batch command-line frontend with machine-readable JSON/CSV output.

Every run writes its result to stdout (or ``--out``) and a one-line run
manifest to stderr; re-running with the manifest's parameters reproduces
byte-identical results.  Exit codes: 0 success, 1 usage error, 2
validation failure (e.g. a fit that misses a verification point).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from fractions import Fraction

import click
import mpmath

import momentforge.families as families
from momentforge import __version__
from momentforge.errors import ConsistencyError, FitVerificationError, MomentForgeError, SizeGuardError
from momentforge.families import boolean, domino, invmaj, schur
from momentforge.families.common import SYMBOL_LEGEND, mgf_digits
from momentforge.fitter import FitSpec, fit_quasi_polynomial
from momentforge.moment_algebra import normality_report
from momentforge.poly_series import Polynomial
from momentforge import oracle as oracle_mod


class ValidationFailure(ConsistencyError):
    """Computation completed but an internal consistency check failed."""


# Most decimal digits of one printed integer: a count, a numerator or a
# denominator.  CPython formats an int in time quadratic in its length;
# 10^5 digits take about 0.1 s on one Intel Xeon core.
PRINT_GUARD = 10**5
# 2^332192 has PRINT_GUARD digits and 2^332193 one more: an integer of at
# most this many bits is inside the guard, one of two bits more is past it.
_PRINT_GUARD_BITS = int(PRINT_GUARD * math.log2(10))


def _text(x: int | Fraction | Polynomial) -> str:
    """Exact decimal text of x, with no integer in it past PRINT_GUARD digits.

    The interpreter's own int-to-str digit limit (4300 on Python >= 3.10.7)
    is lifted while x is formatted; PRINT_GUARD takes its place.  Raises
    SizeGuardError past it, before any digit is produced.
    """
    for c in x.coeffs if isinstance(x, Polynomial) else (x,):
        bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        if bits == _PRINT_GUARD_BITS + 1 and max(abs(c.numerator), c.denominator) >= 10**PRINT_GUARD:
            bits += 1  # the one bit length that straddles the guard, past it
        _check_printable(bits)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return x.to_text() if isinstance(x, Polynomial) else str(x)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _check_printable(bits: float) -> None:
    """Raise SizeGuardError if an integer of ``bits`` bits or more is certainly past PRINT_GUARD digits."""
    if bits > _PRINT_GUARD_BITS + 1:
        raise SizeGuardError(
            f"a printed integer of at least {int((bits - 1) * math.log10(2)) + 1} digits is "
            f"beyond the PRINT_GUARD = {PRINT_GUARD} digit size guard"
        )


def _emit(ctx_params: dict, subcommand: str, result: dict, csv_text: str, started: float) -> None:
    fmt = ctx_params["format"]
    out_path = ctx_params["out"]
    if fmt == "json":
        payload = {"subcommand": subcommand, "result": result}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = csv_text
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
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


def _csv_table(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _family_params(family: str, **given) -> tuple[families.Family, dict]:
    """The family's table entry and its parameters, defaults filled in."""
    try:
        entry = families.validate_family(family)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
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
@click.version_option(__version__)
def cli():
    """Exact moments of combinatorial statistics, with oracles and fits."""


def _moment_command(kind: str, subcommand: str):
    @_family_options
    @click.option("--r", "--r-max", "r_max", type=int, default=4, show_default=True, help="Highest moment order.")
    @_common_options
    def command(family, n, c, m, k, r_max, format, out):
        started = time.monotonic()
        entry, params = _family_params(family, n=n, c=c, m=m, k=k)
        try:
            vec = families.moment_vector(family, kind, r_max, params)
            closed_forms = entry.closed_forms(kind, r_max, params) if entry.closed_forms else None
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        result = {
            "family": family,
            "params": params,
            "kind": vec.kind,
            "about_mean": vec.about_mean,
            "entries": [_text(e) for e in vec.entries],
        }
        if closed_forms:
            result["closed_forms"] = closed_forms
            result["symbols"] = {
                s: SYMBOL_LEGEND[s] for s in ("n", "W", "w", "mu") if any(s in t for t in closed_forms)
            }
        if kind == "raw":
            # refuse a size past PRINT_GUARD before building it; _text decides exactly
            _check_printable(entry.space_bits(params))
            space = entry.space_size(params)
            result["sample_space_size"] = _text(space)
            result["scaled_entries"] = [_text(e * space) for e in vec.entries]
        rows = [[r, _text(e)] for r, e in enumerate(vec.entries)]
        _emit(
            {"format": format, "out": out, "family": family, **params, "r_max": r_max},
            subcommand,
            result,
            _csv_table(["r", "value"], rows),
            started,
        )

    command.__name__ = subcommand.replace("-", "_")
    return command


cli.command(name="moments")(_moment_command("raw", "moments"))
cli.command(name="central")(_moment_command("central", "central"))
cli.command(name="binomial-moments")(_moment_command("binomial", "binomial-moments"))


@cli.command(name="pgf")
@_family_options
@_common_options
def pgf_cmd(family, n, c, m, k, format, out):
    """Exact probability generating function in canonical text."""
    started = time.monotonic()
    entry, params = _family_params(family, n=n, c=c, m=m, k=k)
    try:
        poly, source = entry.pgf(params)
    except (ValueError, MomentForgeError) as exc:
        raise click.UsageError(str(exc)) from exc
    coeffs = [_text(poly.coefficient(d)) for d in range(max(poly.degree, 0) + 1)] if poly else ["0"]
    result = {
        "family": family,
        "params": params,
        "polynomial": _text(poly),
        "coefficients": coeffs,
        "source": source,
    }
    rows = [[d, v] for d, v in enumerate(coeffs)]
    _emit(
        {"format": format, "out": out, "family": family, **params},
        "pgf",
        result,
        _csv_table(["degree", "coefficient"], rows),
        started,
    )


@cli.command(name="normality")
@click.option("--family", required=True, help=" | ".join(families.FAMILIES))
@click.option("--n-grid", required=True, help="Comma-separated ascending n values, e.g. 11,101,1001")
@click.option("--m", type=int, default=None, help="domino rows (default 1)")
@click.option("--k", type=int, default=None, help="boolean cube dimension (default 0)")
@click.option("--r-max", type=int, default=8, show_default=True)
@click.option("--threshold", type=float, default=0.05, show_default=True)
@click.option("--precision", type=int, default=50, show_default=True, help="Significant digits.")
@_common_options
def normality_cmd(family, n_grid, m, k, r_max, threshold, precision, format, out):
    """Normalized moments vs Gaussian targets along an n-grid, from what central serves."""
    started = time.monotonic()
    try:
        ns = [int(x) for x in n_grid.split(",")]
    except ValueError as exc:
        raise click.UsageError(f"bad --n-grid {n_grid!r}: {exc}") from exc
    _, params = _family_params(family, m=m, k=k)
    try:
        # largest n first (the grid ascends): its schur E[X^2] sweep serves every smaller n
        grid = [
            (n, families.moment_vector(family, "central", r_max, {**params, "n": n}))
            for n in reversed(ns)
        ][::-1]
        report = normality_report(family, params, grid, r_max, threshold=threshold, dps=precision)
    except ConsistencyError:
        raise  # a failed internal check exits 2 through main, not as a usage error
    except (ValueError, MomentForgeError) as exc:
        raise click.UsageError(str(exc)) from exc
    _emit(
        {"format": format, "out": out, "family": family, "n_grid": n_grid, **params,
         "r_max": r_max, "threshold": threshold, "precision": precision},
        "normality",
        report.to_json_dict(),
        report.to_csv_text(),
        started,
    )


@cli.command(name="mgf-limit")
@click.option("--family", type=click.Choice(["invmaj", "board1n"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--t-min", type=float, default=-2.0, show_default=True)
@click.option("--t-max", type=float, default=2.0, show_default=True)
@click.option("--t-steps", type=int, default=17, show_default=True)
@click.option("--precision", type=int, default=50, show_default=True, help="Significant digits.")
@_common_options
def mgf_limit_cmd(family, n, t_min, t_max, t_steps, precision, format, out):
    """Deviation of G_n(e^{t/sigma}) from e^{t^2/2} on a t grid."""
    started = time.monotonic()
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise click.UsageError("need finite --t-min and --t-max")
    if t_steps < 2 or t_max <= t_min:
        raise click.UsageError("need t-min < t-max and at least 2 steps")
    lo, hi = Fraction(t_min).limit_denominator(10**6), Fraction(t_max).limit_denominator(10**6)
    try:
        # refuse past MGF_GUARD before the t grid is built; each route checks again
        mgf_digits(n if family == "invmaj" else 0, t_steps, precision)
        ts = [lo + (hi - lo) * i / (t_steps - 1) for i in range(t_steps)]
        if family == "invmaj":
            sup, rows = invmaj.mgf_deviation(n, ts, dps=precision)
        else:
            sup, rows = domino.mgf_deviation_1n(n, ts, dps=precision)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
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
    _emit(
        {"format": format, "out": out, "family": family, "n": n, "t_min": t_min,
         "t_max": t_max, "t_steps": t_steps, "precision": precision},
        "mgf-limit",
        result,
        _csv_table(["t", "deviation"], [[r["t"], r["deviation"]] for r in row_dicts]),
        started,
    )


@cli.command(name="oracle")
@_family_options
@click.option("--r-max", type=int, default=4, show_default=True)
@click.option("--samples", type=int, default=None, help="Boolean family: draw this many samples instead of exhausting.")
@click.option("--seed", type=int, default=None, help="PRNG seed for sampling mode (Mersenne Twister).")
@_common_options
def oracle_cmd(family, n, c, m, k, r_max, samples, seed, format, out):
    """Exhaustive (or seeded-sample) histogram plus exact moments."""
    started = time.monotonic()
    entry, params = _family_params(family, n=n, c=c, m=m, k=k)
    if samples is not None:
        if entry.sample is None:
            raise click.UsageError(f"family {family!r} has no sampling mode; drop --samples")
        if seed is None:
            raise click.UsageError("sampling mode needs --seed for reproducibility")
    try:
        if samples is None:
            hist, extra = entry.enumerate(params)
        else:
            hist, extra = entry.sample(params, samples, seed), {}
    except (ValueError, MomentForgeError) as exc:
        raise click.UsageError(str(exc)) from exc
    moments = oracle_mod.histogram_moments(hist, r_max)
    result = {
        "family": family,
        "params": params,
        "mode": "exhaustive" if samples is None else "sample",
        "seed": seed,
        "samples": samples,
        "total": _text(hist.total),
        "histogram": {str(v): cnt for v, cnt in hist.to_csv_rows()},
        "moments": [_text(e) for e in moments.entries],
        **extra,
    }
    _emit(
        {"format": format, "out": out, "family": family, **params, "r_max": r_max,
         "samples": samples, "seed": seed},
        "oracle",
        result,
        _csv_table(["value", "count"], hist.to_csv_rows()),
        started,
    )


@cli.command(name="fit")
@click.option("--family", type=click.Choice(["schur"]), default="schur", show_default=True)
@click.option("--r", type=click.IntRange(1, 2), default=2, show_default=True, help="Moment order to fit (schur: 1 or 2).")
@click.option("--c", type=int, default=2, show_default=True)
@click.option("--period", type=int, required=True)
@click.option("--degree", type=int, required=True)
@click.option("--n-min", type=int, required=True)
@click.option("--n-max", type=int, required=True)
@click.option("--verify", type=int, default=3, show_default=True, help="Held-out points per residue class.")
@_common_options
def fit_cmd(family, r, c, period, degree, n_min, n_max, verify, format, out):
    """Fit a quasi-polynomial to enumerated moment data and verify exactly."""
    started = time.monotonic()
    if n_min < 1 or n_max < n_min:
        raise click.UsageError("need 1 <= n-min <= n-max")
    ns = range(n_min, n_max + 1)
    try:
        if r == 2:
            data = schur.second_moment_grid(ns, c)
        else:
            data = [(n, schur.first_moment(n, c)) for n in ns]
        res = fit_quasi_polynomial(
            FitSpec(period=period, degree=degree, samples=tuple(data), verify_count=verify)
        )
    except FitVerificationError as exc:
        raise ValidationFailure(str(exc)) from exc
    except (ValueError, MomentForgeError) as exc:
        raise click.UsageError(str(exc)) from exc
    quasi = res.quasi
    result = {
        "family": family,
        "params": {"r": r, "c": c},
        "quasi_polynomial": quasi.to_text(),
        "branches": [
            {"residue": j, "polynomial": b.to_text()} for j, b in enumerate(quasi.branches)
        ],
        "provenance": res.provenance,
    }
    rows = [[j, b.to_text()] for j, b in enumerate(quasi.branches)]
    _emit(
        {"format": format, "out": out, "family": family, "r": r, "c": c, "period": period,
         "degree": degree, "n_min": n_min, "n_max": n_max, "verify": verify},
        "fit",
        result,
        _csv_table(["residue", "polynomial"], rows),
        started,
    )


@cli.command(name="identities")
@click.option("--r-max", type=int, default=10, show_default=True)
@_common_options
def identities_cmd(r_max, format, out):
    """Check the central-coefficient identity battery for the 0-cube count."""
    started = time.monotonic()
    rows = []
    all_ok = True
    for r in range(r_max + 1):
        for t in range(r + 1):
            if r % 2 == 1 or t < r // 2:
                expected = Fraction(0)
            elif r % 2 == 0 and t == r // 2:
                kk = r // 2
                expected = Fraction(math.factorial(2 * kk), 8**kk * math.factorial(kk))
            else:
                continue  # nonzero generic coefficients are not identity rows
            value = boolean.central_coefficient(r, t)
            ok = value == expected
            all_ok = all_ok and ok
            rows.append({"r": r, "t": t, "value": _text(value), "expected": _text(expected), "ok": ok})
    result = {"r_max": r_max, "rows": rows, "all_ok": all_ok}
    _emit(
        {"format": format, "out": out, "r_max": r_max},
        "identities",
        result,
        _csv_table(
            ["r", "t", "value", "expected", "ok"],
            [[w["r"], w["t"], w["value"], w["expected"], w["ok"]] for w in rows],
        ),
        started,
    )
    if not all_ok:
        raise ValidationFailure("identity battery found a mismatch (see output rows)")


@cli.command(name="approx-h")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--with-polynomial", is_flag=True, help="Include the full H_n(q) polynomial (small n only).")
@_common_options
def approx_h_cmd(n, k, with_polynomial, format, out):
    """Independence approximation H_n(q): exact moments, optional polynomial."""
    started = time.monotonic()
    try:
        moments = boolean.h_moments(n, k)
        p = boolean.h_probability(n, k)
        exact_mean = families.moment_vector("boolean", "raw", 1, {"n": n, "k": k}).entries[1]
    except (ValueError, MomentForgeError) as exc:
        raise click.UsageError(str(exc)) from exc
    result = {
        "n": n,
        "k": k,
        "p": _text(p),
        "mean": _text(moments["mean"]),
        "mean_closed_form": _text(boolean.h_mean_closed_form(n, k)),
        "second_factorial": _text(moments["second_factorial"]),
        "variance": _text(moments["variance"]),
        "exact_mean": _text(exact_mean),
    }
    rows = [[key, result[key]] for key in
            ("p", "mean", "mean_closed_form", "second_factorial", "variance", "exact_mean")]
    if with_polynomial:
        try:
            poly = boolean.h_polynomial(n, k)
        except MomentForgeError as exc:
            raise click.UsageError(str(exc)) from exc
        # H_4(q) for k = 2 has 5484-digit denominators, past the interpreter's
        # own int-to-str limit but inside PRINT_GUARD
        probs = [_text(poly.coefficient(d)) for d in range(max(poly.degree, 0) + 1)]
        result["polynomial"] = _text(poly)
        result["probabilities"] = probs
        rows += [[f"q^{d}", v] for d, v in enumerate(probs)]
    _emit(
        {"format": format, "out": out, "n": n, "k": k, "with_polynomial": with_polynomial},
        "approx-h",
        result,
        _csv_table(["key", "value"], rows),
        started,
    )


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
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
    except ConsistencyError as exc:
        sys.stderr.write(f"validation failure: {exc}\n")
        return 2
    except MomentForgeError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
