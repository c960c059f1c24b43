"""One round of a workload in a fresh interpreter.

Usage: python3 worker.py CLOCK_AT_SPAWN run|trace SPEC_JSON REPORT_JSON

CLOCK_AT_SPAWN is time.CLOCK_MONOTONIC read by the parent just before it
started this interpreter, so setup_s covers interpreter start-up and the
import of momentforge.cli.  SPEC_JSON names the jobs (argument lists that
already hold ``--out``) and, for a traced round, where to write the spans.
The report holds setup_s, wall_s (the jobs only), peak_rss_mb, each job's
exit code, and the time of a fixed reference load run right after the
import and again after the jobs; a traced round adds the per-layer metrics
and writes its spans.
"""

import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_cli(traced: bool) -> dict:
    """Import momentforge.cli; when traced, time click and mpmath on their own first."""
    times = {}
    if traced:
        start = _clock()
        import click  # noqa: F401

        times["setup.import_click_s"] = _clock() - start
        start = _clock()
        import mpmath  # noqa: F401

        times["setup.import_mpmath_s"] = _clock() - start
        start = _clock()
    import momentforge.cli  # noqa: F401

    if traced:
        times["setup.import_momentforge_s"] = _clock() - start
    return times


def reference_seconds() -> float:
    """Time a fixed pure-Python load: Fraction sums, dict updates, bit counts.

    The host's speed drifts by tens of percent over minutes; this load slows
    with it, so run.py scales each round's times by the reference measured in
    the same process.  Its three parts stand for the program's rational
    arithmetic, its bookkeeping and its enumeration loops.
    """
    from fractions import Fraction

    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 4500):
        total += Fraction(k % 7 + 1, k)
    table: dict = {}
    for i in range(120000):
        key = i % 977
        table[key] = table.get(key, 0) + i * i
    masks = [(i * 2654435761) & 0xFFFFFFFF for i in range(500)]
    bits = 0
    for a in masks:
        for b in masks:
            bits += (a & b).bit_count()
    return time.perf_counter() - start


def main() -> None:
    spawned = float(sys.argv[1])
    traced = sys.argv[2] == "trace"
    spec_path, report_path = sys.argv[3], sys.argv[4]
    import_times = _import_cli(traced)
    setup_s = _clock() - spawned
    reference_before = reference_seconds()

    import json
    import resource
    import traceback

    from momentforge.cli import main as cli_main

    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    run = cli_main
    if traced:
        import functools

        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = functools.partial(tracer.call, tracing.JOB_SPAN, cli_main)

    codes = []
    job_seconds = []
    first = time.perf_counter()
    for argv in spec["jobs"]:
        start = time.perf_counter()
        try:
            code = run(argv)
        except Exception:  # a crash fails this job; the round goes on
            traceback.print_exc()
            code = -1
        job_seconds.append(time.perf_counter() - start)
        codes.append(code)
    wall_s = time.perf_counter() - first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference_after = reference_seconds() if spec["jobs"] else reference_before

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reference_before_s": reference_before,
        "reference_after_s": reference_after,
        "peak_rss_mb": peak_rss_mb,
        "codes": codes,
        "job_seconds": job_seconds,
    }
    if tracer is not None:
        report["layers"] = {**import_times, **tracing.layer_metrics(tracer)}
        tracer.write(spec["spans_path"])
    with open(report_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
