"""Run one workload of the momentforge benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload pgf-dense --seed 1 --seconds 30 --trace 0

Every round starts a fresh interpreter (``worker.py``) that imports
``momentforge.cli`` and calls ``momentforge.cli.main`` once per job of the
workload, in the order the seed picks.  Rounds repeat until ``--seconds``
is used up; then every output is checked by ``checks.py`` and the medians
over the rounds are reported.  With ``--trace 0`` the metrics are the
end-to-end ones (setup_s, wall_s, peak_rss_mb); with ``--trace 1`` untraced
and traced rounds alternate, and the metrics are the per-layer ones plus
trace.overhead_s, the traced wall time minus the untraced one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it records the
Python version, the processor count, the commit and the job order.  The
same record, with every round's figures, goes to
``.bench_runs/<workload>-seed<seed>-trace<0|1>.json``; a traced run also
writes its spans to ``.bench_runs/<workload>-seed<seed>-spans.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 10  # import-only interpreters per run, on top of one per round
WORKER_TIMEOUT_S = 100
# Every reported time is scaled to the host speed at which the reference
# load of worker.py takes this long, about its median over the tuning runs
# on one core of an Intel Xeon host (see README.md, "Host speed").
REFERENCE_S = 0.08


class BenchmarkError(Exception):
    """The benchmark itself could not run (missing source, crashed worker)."""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _commit(root: Path) -> str:
    """The checked-out commit read from .git, or "unknown" outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Rounds:
    """Starts worker interpreters in a scratch directory of the checkout."""

    def __init__(self, root: Path, work: Path, jobs: list[workloads.Job]):
        self.root = root
        self.work = work
        self.jobs = jobs
        self.env = dict(os.environ)
        self.env.pop("MOMENTFORGE_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def output_path(self, index: int) -> Path:
        return self.work / f"job{index}.json"

    def spawn(self, mode: str, with_jobs: bool, spans_path: Path | None = None) -> dict:
        jobs = [
            [*job.argv, "--out", str(self.output_path(i))] for i, job in enumerate(self.jobs)
        ] if with_jobs else []
        spec = self.work / "spec.json"
        report = self.work / "report.json"
        spec.write_text(json.dumps({"jobs": jobs, "spans_path": str(spans_path or "")}))
        report.unlink(missing_ok=True)
        with open(self.work / "worker.log", "a") as log:
            cmd = [sys.executable, str(HERE / "worker.py"), repr(_clock()), mode, str(spec), str(report)]
            try:
                proc = subprocess.run(
                    cmd, cwd=self.root, env=self.env, stdout=log, stderr=log,
                    timeout=WORKER_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired as exc:
                raise BenchmarkError(f"worker ran past {WORKER_TIMEOUT_S} s") from exc
        if proc.returncode != 0 or not report.is_file():
            raise BenchmarkError(
                f"worker exited with {proc.returncode}; see {self.work / 'worker.log'}"
            )
        return json.loads(report.read_text())


class Checker:
    """Schema and independent checks of each output, once per distinct output."""

    def __init__(self, schema: dict):
        import jsonschema

        self.validator = jsonschema.Draft202012Validator(schema)
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.first_digest: dict[str, str] = {}

    def check(self, job: workloads.Job, path: Path) -> list[str]:
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        errors = []
        if self.first_digest.setdefault(job.name, digest) != digest:
            errors.append("output differs from the same job's output in an earlier round")
        key = (job.name, digest)
        if key not in self.verdicts:
            self.verdicts[key] = self._verdict(job, data)
        return self.verdicts[key] + errors

    def _verdict(self, job: workloads.Job, data: bytes) -> list[str]:
        try:
            payload = json.loads(data)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        schema_errors = [e.message for e in self.validator.iter_errors(payload)]
        if schema_errors:
            return [f"output fails output.schema.json: {schema_errors[0]}"]
        if payload["subcommand"] != job.argv[0]:
            return [f"subcommand {payload['subcommand']!r}, expected {job.argv[0]!r}"]
        try:
            return job.check(payload["result"], **job.params)
        except Exception as exc:  # a malformed output must fail the job, not the run
            return [f"check raised {exc!r}"]


def _unit(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric == "cli.out_bytes":
        return "bytes"
    return "s" if metric.endswith("_s") else "count"


def _reference(report: dict) -> float:
    return (report["reference_before_s"] + report["reference_after_s"]) / 2


def _nominal(seconds: float, reference: float) -> float:
    """Seconds scaled to the nominal host speed, at which the reference load takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference


def run(args: argparse.Namespace, root: Path) -> tuple[dict, dict]:
    src = root / "src"
    if not (src / "momentforge" / "cli.py").is_file():
        raise BenchmarkError(f"no momentforge source under {src}; run from a checkout's root")
    schema = json.loads((src / "momentforge" / "schemas" / "output.schema.json").read_text())
    checker = Checker(schema)
    label = f"{args.workload}-seed{args.seed}"
    runs_dir = root / ".bench_runs"
    work = runs_dir / f"{label}-trace{args.trace}.tmp"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = workloads.jobs_for(args.workload, args.seed)
    rounds = Rounds(root, work, jobs)
    spans_path = runs_dir / f"{label}-spans.json"

    try:
        rounds.spawn("run", with_jobs=False)  # compiles bytecode; not measured
        start = _clock()
        imports = [rounds.spawn("run", with_jobs=False) for _ in range(SETUP_SPAWNS)]
        reports: dict[str, list[dict]] = {"run": [], "trace": []}
        modes = ["run", "trace"] if args.trace else ["run"]
        attempted = failed = wrong = 0
        errors: list[str] = []
        durations: list[float] = []
        while not durations or _clock() + median(durations) <= start + args.seconds:
            began = _clock()
            for mode in modes:
                report = rounds.spawn(mode, with_jobs=True, spans_path=spans_path)
                reports[mode].append(report)
                for i, (job, code) in enumerate(zip(jobs, report["codes"])):
                    attempted += 1
                    if code != 0:
                        problems = [f"exit code {code}"]
                    else:
                        problems = checker.check(job, rounds.output_path(i))
                        wrong += bool(problems)
                    if problems:
                        failed += 1
                        errors += [f"{job.name}: {p}" for p in problems]
            durations.append(_clock() - began)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups = [_nominal(r["setup_s"], r["reference_before_s"]) for r in imports + reports["run"]]
    walls = {mode: [_nominal(r["wall_s"], _reference(r)) for r in reports[mode]] for mode in modes}
    if args.trace:
        traced = reports["trace"]
        metrics = {
            name: median([_nominal(r["layers"][name], r["reference_before_s"]) for r in traced])
            for name in tracing.SETUP_METRICS
        }
        metrics.update({
            name: median([_nominal(r["layers"][name], _reference(r)) for r in traced])
            for name in tracing.TIME_METRICS
        })
        metrics.update({name: traced[0]["layers"][name] for name in tracing.COUNT_METRICS})
        metrics["trace.overhead_s"] = median(walls["trace"]) - median(walls["run"])
    else:
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(walls["run"]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reports["run"]]),
        }
    result = {
        # a job that exits non-zero only fails; one that exits 0 with a wrong output is incorrect
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": _commit(root),
        "jobs": [job.name for job in jobs],
        "raw_setup_s": median([r["setup_s"] for r in imports + reports["run"]]),
        "raw_wall_s": median([r["wall_s"] for r in reports["run"]]),
        "reference_s": median([_reference(r) for r in reports["run"]]),
        "setup_samples": setups,
        "imports": imports,
        "rounds": reports,
        "errors": errors[:20],
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        result, info = run(args, root)
    except BenchmarkError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    runs_dir = root / ".bench_runs"
    record = {"info": info, "result": result}
    (runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    summary = {k: info[k] for k in ("workload", "seed", "python", "nproc", "commit", "jobs")}
    summary["rounds"] = len(info["rounds"]["run"])
    summary.update({k: info[k] for k in ("raw_setup_s", "raw_wall_s", "reference_s")})
    print(json.dumps({"info": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
