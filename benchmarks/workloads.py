"""The benchmark's workloads: fixed lists of CLI jobs, each with its output check.

A job is one call of ``momentforge.cli.main``.  Sizes never depend on the
seed; the seed picks only the order of the jobs within a run and the
sampler's ``--seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import checks


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: Callable[..., list[str]]
    params: dict = field(default_factory=dict)


def _job(check, params, *argv) -> Job:
    return Job(" ".join(argv), tuple(argv), check, params)


def _pgf_dense(sampler_seed: int) -> list[Job]:
    return [
        _job(checks.check_pgf_invmaj, {"n": 28}, "pgf", "--family", "invmaj", "--n", "28"),
        _job(checks.check_pgf_boolean, {"n": 8}, "pgf", "--family", "boolean", "--n", "8"),
        _job(
            checks.check_pgf_domino_row, {"n": 300},
            "pgf", "--family", "domino", "--m", "1", "--n", "300",
        ),
        _job(
            checks.check_approx_h_k0, {"n": 8},
            "approx-h", "--n", "8", "--k", "0", "--with-polynomial",
        ),
        _job(
            checks.check_pgf_domino_board, {"m": 3, "n": 6},
            "pgf", "--family", "domino", "--m", "3", "--n", "6",
        ),
    ]


def _moments_exact(sampler_seed: int) -> list[Job]:
    return [
        _job(
            checks.check_domino_raw, {"m": 10, "n": 40, "r": 8},
            "moments", "--family", "domino", "--m", "10", "--n", "40", "--r", "8",
        ),
        _job(
            checks.check_domino_central, {"m": 8, "n": 120, "r": 8},
            "central", "--family", "domino", "--m", "8", "--n", "120", "--r", "8",
        ),
        _job(
            checks.check_normality_domino, {"m": 8, "grid": [20, 80, 240], "r": 8},
            "normality", "--family", "domino", "--m", "8", "--n-grid", "20,80,240", "--r-max", "8",
        ),
        _job(
            checks.check_binomial_invmaj, {"n": 400, "r": 10},
            "binomial-moments", "--family", "invmaj", "--n", "400", "--r", "10",
        ),
        _job(
            checks.check_normality_invmaj, {"grid": [100, 200, 400], "r": 10},
            "normality", "--family", "invmaj", "--n-grid", "100,200,400", "--r-max", "10",
        ),
        _job(
            checks.check_mgf_invmaj, {"n": 400, "steps": 17},
            "mgf-limit", "--family", "invmaj", "--n", "400", "--t-steps", "17",
        ),
        _job(
            checks.check_central_boolean, {"n": 30, "r": 12},
            "central", "--family", "boolean", "--n", "30", "--k", "0", "--r", "12",
        ),
    ]


def _schur_fit(sampler_seed: int) -> list[Job]:
    return [
        _job(
            checks.check_fit_schur, {"c": 2, "n_min": 13, "n_max": 96},
            "fit", "--family", "schur", "--r", "2", "--c", "2", "--period", "12",
            "--degree", "4", "--n-min", "13", "--n-max", "96", "--verify", "2",
        ),
    ]


def _oracle_enum(sampler_seed: int) -> list[Job]:
    return [
        _job(
            checks.check_oracle_domino, {"m": 4, "n": 5, "r": 6},
            "oracle", "--family", "domino", "--m", "4", "--n", "5", "--r-max", "6",
        ),
        _job(checks.check_oracle_schur, {"n": 16, "c": 2}, "oracle", "--family", "schur", "--n", "16", "--c", "2"),
        _job(checks.check_oracle_schur, {"n": 9, "c": 3}, "oracle", "--family", "schur", "--n", "9", "--c", "3"),
        _job(checks.check_oracle_invmaj, {"n": 8}, "oracle", "--family", "invmaj", "--n", "8"),
        _job(
            checks.check_oracle_boolean, {"n": 4, "k": 1},
            "oracle", "--family", "boolean", "--n", "4", "--k", "1",
        ),
        _job(
            checks.check_sample_boolean,
            {"n": 6, "k": 2, "samples": 10000, "seed": sampler_seed},
            "oracle", "--family", "boolean", "--n", "6", "--k", "2",
            "--samples", "10000", "--seed", str(sampler_seed),
        ),
    ]


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "pgf-dense": _pgf_dense,
    "moments-exact": _moments_exact,
    "schur-fit": _schur_fit,
    "oracle-enum": _oracle_enum,
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's jobs in the order the seed picks."""
    rng = random.Random(seed)
    jobs = WORKLOADS[workload](rng.randrange(2**32))
    rng.shuffle(jobs)
    return jobs
