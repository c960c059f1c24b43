"""Every argv the CLI must refuse: one table, read by Tier-1 and by CI.

A row is an argv, the fragments its one-line ``usage error:`` must hold
and the reason for the row.  ``test_cli.test_refused_argv_exits_1`` runs
each row in process; tests of what only some rows show read them by their
reason.  CI runs each row as a whole process under ``timeout 10``, from
the lines this file prints as a script: the argv, then each fragment,
tab-separated.
"""

from typing import NamedTuple


class Refusal(NamedTuple):
    argv: list[str]
    fragments: tuple[str, ...]
    reason: str

    @property
    def label(self) -> str:
        """The argv as a test id, each word past 24 characters cut to its head and length."""
        return " ".join(w if len(w) <= 24 else f"{w[:8]}...[{len(w)} chars]" for w in self.argv)


def _grid(first, last):
    return ",".join(str(n) for n in range(first, last + 1))


def _rows(reason, fragments, *argvs):
    """One row per argv, each written as the words of a command line."""
    return [Refusal(argv.split(), tuple(fragments), reason) for argv in argvs]


def argvs(reason):
    """The argvs of the rows refused for ``reason``."""
    return [row.argv for row in REFUSALS if row.reason == reason]


# the reasons whose rows other tests read
HUGE_BOOLEAN = "boolean moments at a huge n, whose 2^n (125 GB at n = 10^12) is weighed before it is built"
PAST_THE_SUM = "each term alone is inside its guard, the sum is not; each ran 6 to 21 s as a whole process"
LONG_GRID = "5000 points weigh 0.05 budgets of size shares, but cost about 1 ms each: 4 to 6 s as a whole process"
FIT_AND_GRID = "past FIT_N_GUARD, FIT_GUARD or GRID_GUARD, refused before anything is built"

REFUSALS = [
    *_rows("no such family, subcommand or option (no subcommand takes --threads)", [],
        "moments --family nosuch --n 3",
        "no-such-command",
        "moments --family invmaj --n 4 --threads 2",
        "oracle --family schur --n 6 --threads 2",
        "fit --r 1 --period 2 --degree 2 --n-min 1 --n-max 14 --threads 2"),
    *_rows("a value outside its option's domain", [],
        "moments --family schur --n 4 --r 7",
        "mgf-limit --family invmaj --n 1",
        "mgf-limit --family invmaj --n 10 --t-min nan",
        "mgf-limit --family invmaj --n 10 --t-max inf",
        "normality --family invmaj --n-grid 4,6,8 --threshold nan",
        "normality --family invmaj --n-grid 4,6,8 --threshold inf",
        "normality --family invmaj --n-grid 4,6,8 --threshold -inf",
        "oracle --family invmaj --n 3 --r-max -2",
        "fit --r 1 --period 2 --degree 2 --n-min 1 --n-max 14 --verify 1",
        "fit --r 1 --c 1 --period 2 --degree 2 --n-min 1 --n-max 14"),
    *_rows("a negative order, not a table of no rows", ["usage error: r_max must be >= 0"], "identities --r-max -1"),
    *_rows("only boolean has a sampling mode", [], "oracle --family domino --m 2 --n 2 --samples 5 --seed 1"),
    *_rows("a sample is reproducible only from a seed", ["seed"], "oracle --family boolean --n 4 --k 1 --samples 10"),
    *_rows("outside the boolean family, 0 <= k <= n, on every route that takes it", ["need 0 <= k <= n"],
        "oracle --family boolean --n 3 --k 4",
        "moments --family boolean --n -1",
        "pgf --family boolean --n -1",
        "oracle --family boolean --n -1",
        "normality --family boolean --n-grid -1,2,3"),
    *_rows("domino boards that do not exist, on the PGF route as on every other", ["need m, n >= 1"],
        "pgf --family domino --m 1 --n 0",
        "pgf --family domino --m 1 --n -5"),
    # each oracle's guard on its sample space: the first argv past it, and far past it
    *_rows("the oracle's permutations", ["PERM_GUARD"],
        "oracle --family invmaj --n 10",
        "oracle --family invmaj --n 12",
        "oracle --family invmaj --n 10000000"),
    *_rows("the oracle's colorings", ["SCHUR_GUARD size guard"],
        "oracle --family schur --n 24 --c 2",
        "oracle --family schur --n 100000000 --c 3"),
    *_rows("the oracle's boards", ["BOARD_GUARD size guard"],
        "oracle --family domino --m 5 --n 5",
        "oracle --family domino --m 100000 --n 100000"),
    *_rows("the oracle's boolean functions", ["BOOLEAN_GUARD size guard"], "oracle --family boolean --n 5 --k 0"),
    # samples * C(n, k) * max(k, 1) * ceil(2^n / 64) word operations: one sample more
    # than the largest request at n = 14, k = 7, and C(20, 10) masks of 2^20 bits
    *_rows("past SAMPLER_GUARD", ["SAMPLER_GUARD"],
        "oracle --family boolean --n 14 --k 7 --samples 2 --seed 1",
        "oracle --family boolean --n 20 --k 10 --samples 1 --seed 1"),
    # a fit reads off and checks every n of its range, at r = 1 and 2
    *_rows(FIT_AND_GRID, ["FIT_N_GUARD = ", "size guard"],
        "fit --r 2 --period 12 --degree 4 --n-min 13 --n-max 50001",
        "fit --r 1 --period 2 --degree 2 --n-min 1 --n-max 50001",
        "fit --r 2 --period 12 --degree 4 --n-min 1 --n-max 50001"),
    # the first degree past period * (degree + 1)^2 at periods 1 and 12
    *_rows(FIT_AND_GRID, ["FIT_GUARD = ", "size guard"],
        "fit --r 2 --period 1 --degree 256 --n-min 1 --n-max 600",
        "fit --r 2 --period 12 --degree 73 --n-min 1 --n-max 1000",
        "fit --r 2 --period 1 --degree 256 --n-min 1 --n-max 50000"),
    # sum(n^2) * (r_max^3 + 8) over a boolean grid: the first grid refused at
    # r_max = 2, and one that ran past 100 s before the guard
    *_rows(FIT_AND_GRID, ["GRID_GUARD = "],
        "normality --family boolean --n-grid 1,2,1000000 --r-max 2",
        "normality --family boolean --n-grid 1000000,2000000,4000000 --r-max 4"),
    *_rows("the first argv past PGF_GUARD on each closed-form route, H_n(q) too", ["PGF_GUARD", "size guard"],
        "pgf --family invmaj --n 188",
        "pgf --family boolean --n 13",
        "pgf --family domino --m 1 --n 4473",
        "pgf --family domino --m 1 --n 50000",
        "approx-h --n 4 --k 2 --with-polynomial",
        "approx-h --n 12 --k 1 --with-polynomial"),
    *_rows("H_n(q) sums over the 2^n + 1 values of m", ["H_MAX_N size guard"], "approx-h --n 15 --k 1"),
    # a lower bound on the sample-space size, printed twice, before it is built
    # (10^6! has 5565709 digits, 2^(2^33) and 2^(10^10) billions); the last five
    # have bounds whose squares, or the bounds themselves, are past float range
    *_rows("past the print total", ["PRINT_TOTAL_GUARD size guard"],
        "moments --family invmaj --n 1000000 --r 2",
        "moments --family boolean --n 33 --r 2",
        "moments --family domino --m 100000 --n 100000 --r 2",
        "moments --family boolean --n 512 --r 1",
        f"moments --family schur --n {10**200} --r 1",
        f"moments --family domino --m 1 --n {10**200} --r 1",
        f"moments --family schur --n {10**400} --r 1",
        f"moments --family invmaj --n {10**400} --r 1"),
    *_rows("the t points' evaluations (17 steps by default), weighed by the precision", ["MGF_GUARD"],
        "mgf-limit --family invmaj --n 23513",
        "mgf-limit --family invmaj --n 1000000 --t-steps 2",
        "mgf-limit --family invmaj --n 400 --precision 800",
        "mgf-limit --family board1n --n 11764 --precision 20000",
        "mgf-limit --family board1n --n 10 --t-steps 1000000"),
    # moment vectors over polynomials: boolean k = 0 in W, the domino mu-forms
    # (central on a 1-by-n board) and the identity battery's table
    *_rows("past SYMBOLIC_ORDER_GUARD", ["SYMBOLIC_ORDER_GUARD = ", "size guard"],
        "moments --family boolean --n 10 --r 200",
        "central --family domino --m 1 --n 50 --r 200",
        "identities --r-max 129",
        "identities --r-max 200"),
    # the first order past r^3 (1000 + b^1.6) on each numeric cumulant route
    # (invmaj n = 8 at r = 500 took 3 to 4 s unguarded)
    *_rows("past NUMERIC_ORDER_GUARD", ["NUMERIC_ORDER_GUARD = "],
        "binomial-moments --family invmaj --n 8 --r 391",
        "moments --family invmaj --n 8 --r 500",
        f"central --family invmaj --n {10**30} --r 248",
        "normality --family boolean --n-grid 1,2,3 --r-max 392",
        "binomial-moments --family domino --m 1 --n 3 --r 392"),
    *_rows(HUGE_BOOLEAN, ["NUMERIC_ORDER_GUARD = "],
        f"central --family boolean --n {10**12} --r 2",
        f"moments --family boolean --n {10**12} --k 1 --r 1",
        f"central --family boolean --n {10**12} --k 1 --r 1",
        "central --family boolean --n 100000000000 --r 2",
        "moments --family boolean --n 100000000000 --k 1 --r 1",
        "central --family boolean --n 1000000000 --k 1 --r 1"),
    # the face sweep's work: the first order past it on a wide board, whose widest sweep
    # (b + 2 = 15 cells) runs b + 2 rows, and on a board of that size read off its own
    # sweep; then the work of a board's moments, charged before any sweep (the 2-by-10
    # board's central moments at r = 1000 took 12.7 s when each order was a sum of r
    # products, 0.5 to 0.8 s by the recurrences)
    *_rows("past TRANSFER_GUARD", ["TRANSFER_GUARD = ", "size guard"],
        "central --family domino --m 100 --n 100 --r 28",
        "moments --family domino --m 15 --n 15 --r 28",
        "central --family domino --m 2 --n 400 --r 1100",
        "moments --family domino --m 2 --n 10000000 --r 10000000",
        "moments --family domino --m 2 --n 10 --r 10000000000"),
    *_rows("the first cube dimension past CUBE_GUARD", ["CUBE_GUARD = "],
        "moments --family boolean --n 16 --k 16 --r 1"),
    *_rows(PAST_THE_SUM, ["NUMERIC_ORDER_GUARD size guard (NUMERIC_ORDER_GUARD = "],
        f"normality --family invmaj --n-grid {_grid(10, 29)} --r-max 380",
        f"normality --family domino --m 1 --n-grid {_grid(10, 19)} --r-max 380",
        "normality --family invmaj --n-grid 10,11,12 --r-max 271",
        "normality --family domino --n-grid 10,11,12 --r-max 272"),
    *_rows(PAST_THE_SUM, ["TRANSFER_GUARD size guard (TRANSFER_GUARD = "],
        f"normality --family domino --m 2 --n-grid {_grid(582, 641)} --r-max 291"),
    *_rows(PAST_THE_SUM, ["PRINT_TOTAL_GUARD size guard (PRINT_TOTAL_GUARD = "],
        "moments --family invmaj --n 20000 --r 100",
        "moments --family invmaj --n 25000 --r 9"),
    *_rows(LONG_GRID,
        ["the normality grid's points = 5000, beyond the GRID_POINTS_GUARD size guard (GRID_POINTS_GUARD = 2000)"],
        f"normality --family invmaj --n-grid {_grid(10, 5009)} --r-max 8"),
    # numeric options past float range, which ended in an OverflowError traceback
    *_rows("an order or a scale past 2^64, weighed as 2^64", ["NUMERIC_ORDER_GUARD = ", "2^"],
        f"moments --family boolean --n {10**400} --r 2",
        f"binomial-moments --family invmaj --n 6 --r {10**400}",
        f"central --family invmaj --n 6 --r {10**112}"),
    *_rows("a grid share capped at 10^300 budgets", ["GRID_GUARD = ", "size budgets together"],
        f"normality --family boolean --n-grid 1,2,{10**400} --r-max 2"),
    *_rows("a t grid longer than len() returns", ["MGF_GUARD = ", "2^66 or more t points"],
        "mgf-limit --family invmaj --n 10 --t-steps 100000000000000000000",
        "mgf-limit --family board1n --n 10 --t-steps 100000000000000000000"),
    # k checked before 2^k and (2^k)! are built: k = 20 took 10.9 s, k = 25 past 30 s
    *_rows("approx-h's k outside 0 <= k <= n", ["need 0 <= k <= n"],
        f"approx-h --n 4 --k -{10**400}",
        "approx-h --n 4 --k 20",
        "approx-h --n 4 --k 25"),
    # 3 points ran 7.7 s at 10^6 digits and 33 s at 3*10^6; mpmath overflowed at 10^400
    *_rows("a normality grid's precision", ["MGF_GUARD = ", "digits weigh"],
        "normality --family invmaj --n-grid 10,20,30 --r-max 8 --precision 1000000",
        "normality --family invmaj --n-grid 10,20,30 --r-max 8 --precision 3000000",
        f"normality --family invmaj --n-grid 10,20,30 --r-max 4 --precision {10**400}"),
    # every moment was built before the print total weighed them: past 30 s
    *_rows("oracle moments charged a lower bound", ["PRINT_TOTAL_GUARD size guard", "max^r / total"],
        "oracle --family domino --m 4 --n 5 --r-max 20000"),
    # the result was built, then open() ended in a FileNotFoundError traceback
    *_rows("an --out file that cannot be opened", ["usage error: cannot write --out", "No such file or directory"],
        "pgf --family invmaj --n 4 --out /nonexistent/dir/x.json"),
]


if __name__ == "__main__":
    for row in REFUSALS:
        print("\t".join([" ".join(row.argv), *row.fragments]))
