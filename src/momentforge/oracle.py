"""Independent brute-force enumerators producing exact distributions.

Every closed form in the families package is validated against these
histograms with no tolerance: both sides are exact rationals.  Boolean
functions are bitmasks of length 2^n; board enumeration walks a Gray code
so each step flips one cell and updates the statistic incrementally.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from momentforge.errors import SizeGuardError
from momentforge.moment_algebra import MomentVector
from momentforge.poly_series import Polynomial

__all__ = [
    "Histogram",
    "JointHistogram",
    "merge_histograms",
    "permutation_inv",
    "permutation_maj",
    "enumerate_schur",
    "enumerate_permutations",
    "count_subcubes",
    "subcube_positions",
    "enumerate_boolean",
    "sample_boolean",
    "enumerate_boards",
    "histogram_moments",
]

SCHUR_GUARD = 10_000_000  # colorings
PERM_GUARD = 400_000  # permutations
BOOLEAN_GUARD = 100_000  # boolean functions (exhaustive mode)
BOARD_GUARD = 20_000_000  # boards
SAMPLER_MAX_N = 24


@dataclass
class Histogram:
    """Exact distribution: statistic value -> count over a finite space."""

    counts: dict[int, int]
    total: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.total:
            raise ValueError("histogram counts do not sum to the sample-space size")

    def mean(self) -> Fraction:
        return Fraction(sum(v * c for v, c in self.counts.items()), self.total)

    def variance(self) -> Fraction:
        mu = self.mean()
        return (
            Fraction(sum(v * v * c for v, c in self.counts.items()), self.total) - mu * mu
        )

    def pgf(self, symbol: str = "q") -> Polynomial:
        """Probability generating function; coefficients sum to 1."""
        top = max(self.counts) if self.counts else 0
        coeffs = [Fraction(self.counts.get(v, 0), self.total) for v in range(top + 1)]
        return Polynomial(symbol, coeffs)

    def to_csv_rows(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "counts": {str(v): c for v, c in sorted(self.counts.items())},
        }


def merge_histograms(parts: Iterable[Histogram]) -> Histogram:
    """Exact integer merge; order-independent by associativity of +."""
    counts: dict[int, int] = {}
    total = 0
    for part in parts:
        total += part.total
        for v, c in part.counts.items():
            counts[v] = counts.get(v, 0) + c
    return Histogram(counts, total)


@dataclass
class JointHistogram:
    """Counts of (inv, maj) pairs over all permutations of length n."""

    counts: dict[tuple[int, int], int]
    n: int

    @property
    def total(self) -> int:
        return math.factorial(self.n)

    def marginal_inv(self) -> Histogram:
        out: dict[int, int] = {}
        for (inv, _), c in self.counts.items():
            out[inv] = out.get(inv, 0) + c
        return Histogram(out, self.total)

    def marginal_maj(self) -> Histogram:
        out: dict[int, int] = {}
        for (_, maj), c in self.counts.items():
            out[maj] = out.get(maj, 0) + c
        return Histogram(out, self.total)


def permutation_inv(perm: Sequence[int]) -> int:
    """Number of pairs appearing out of order."""
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])


def permutation_maj(perm: Sequence[int]) -> int:
    """Sum of descent positions (1-based)."""
    return sum(i + 1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1])


def _schur_triple_index_sets(n: int) -> list[tuple[int, ...]]:
    """Distinct element sets of all Schur triples {x, y, x+y} within [1, n]."""
    out = []
    for x in range(1, n + 1):
        for y in range(x, n - x + 1):
            if x == y:
                out.append((x, 2 * x))
            else:
                out.append((x, y, x + y))
    return out


def enumerate_schur(n: int, c: int, parts: int = 1) -> Histogram:
    """Exact distribution of the monochromatic Schur-triple count.

    ``parts`` > 1 splits the coloring space into contiguous blocks that are
    enumerated independently and merged (deterministic by exact addition).
    """
    if n < 1 or c < 2:
        raise ValueError("need n >= 1 and c >= 2")
    space = c**n
    if space > SCHUR_GUARD:
        raise SizeGuardError(f"{c}^{n} = {space} colorings exceed the {SCHUR_GUARD} guard")
    triples = _schur_triple_index_sets(n)
    if c == 2:
        masks = [sum(1 << (e - 1) for e in t) for t in triples]
        blocks = _split_range(space, parts)
        return merge_histograms(_schur_block_c2(masks, lo, hi) for lo, hi in blocks)
    counts: dict[int, int] = {}
    for coloring in itertools.product(range(c), repeat=n):
        x = 0
        for t in triples:
            col = coloring[t[0] - 1]
            if all(coloring[e - 1] == col for e in t[1:]):
                x += 1
        counts[x] = counts.get(x, 0) + 1
    return Histogram(counts, space)


def _schur_block_c2(masks: list[int], lo: int, hi: int) -> Histogram:
    counts: dict[int, int] = {}
    for u in range(lo, hi):
        x = 0
        for m in masks:
            v = u & m
            if v == 0 or v == m:
                x += 1
        counts[x] = counts.get(x, 0) + 1
    return Histogram(counts, hi - lo)


def _split_range(size: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, size))
    step, rem = divmod(size, parts)
    blocks = []
    lo = 0
    for i in range(parts):
        hi = lo + step + (1 if i < rem else 0)
        blocks.append((lo, hi))
        lo = hi
    return blocks


def enumerate_permutations(n: int) -> JointHistogram:
    """Joint (inv, maj) counts over S_n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if math.factorial(n) > PERM_GUARD:
        raise SizeGuardError(f"{n}! exceeds the {PERM_GUARD} guard")
    counts: dict[tuple[int, int], int] = {}
    for perm in itertools.permutations(range(1, n + 1)):
        key = (permutation_inv(perm), permutation_maj(perm))
        counts[key] = counts.get(key, 0) + 1
    return JointHistogram(counts, n)


def _as_vertex_mask(f, n: int) -> int:
    """Normalize a boolean function to a bitmask over the 2^n vertices."""
    if isinstance(f, int):
        if not 0 <= f < 1 << (1 << n):
            raise ValueError("function mask out of range for the given n")
        return f
    mask = 0
    for vertex in f:
        if isinstance(vertex, str):
            if len(vertex) != n or set(vertex) - {"0", "1"}:
                raise ValueError(f"bad vertex {vertex!r} for n={n}")
            vertex = int(vertex, 2)
        if not 0 <= vertex < 1 << n:
            raise ValueError(f"vertex {vertex} outside the {n}-cube")
        mask |= 1 << vertex
    return mask


@lru_cache(maxsize=None)
def subcube_positions(n: int, k: int) -> tuple[int, ...]:
    """Vertex masks of all axis-aligned k-subcubes of the n-cube."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    positions = []
    for free in itertools.combinations(range(n), k):
        fixed = [i for i in range(n) if i not in free]
        for bits in range(1 << (n - k)):
            base = 0
            for j, coord in enumerate(fixed):
                if (bits >> j) & 1:
                    base |= 1 << coord
            mask = 0
            for corner in range(1 << k):
                v = base
                for j, coord in enumerate(free):
                    if (corner >> j) & 1:
                        v |= 1 << coord
                mask |= 1 << v
            positions.append(mask)
    return tuple(positions)


def _subcube_counter(n: int, k: int):
    """The function mask -> number of k-subcubes of the n-cube inside the mask."""
    if k == 0:
        return int.bit_count
    positions = subcube_positions(n, k)

    def count(mask: int) -> int:
        x = 0
        for pos in positions:
            if mask & pos == pos:
                x += 1
        return x

    return count


def count_subcubes(f, n: int, k: int) -> int:
    """Number of k-dimensional subcubes fully contained in f."""
    return _subcube_counter(n, k)(_as_vertex_mask(f, n))


@lru_cache(maxsize=None)
def _boolean_counts(n: int, k: int) -> tuple[tuple[int, int], ...]:
    subcubes = _subcube_counter(n, k)
    counts: dict[int, int] = {}
    for f in range(1 << (1 << n)):
        x = subcubes(f)
        counts[x] = counts.get(x, 0) + 1
    return tuple(sorted(counts.items()))


def enumerate_boolean(n: int, k: int) -> Histogram:
    """Exact distribution of the k-subcube count over all boolean functions."""
    space = 1 << (1 << n)
    if space > BOOLEAN_GUARD:
        raise SizeGuardError(f"2^(2^{n}) = {space} functions exceed the {BOOLEAN_GUARD} guard")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return Histogram(dict(_boolean_counts(n, k)), space)


def sample_boolean(n: int, k: int, count: int, seed: int) -> Histogram:
    """Seeded Monte Carlo histogram of the k-subcube count.

    The PRNG is Python's Mersenne Twister (random.Random) with the given
    64-bit seed; reports should record the seed for reproducibility.
    """
    if n > SAMPLER_MAX_N:
        raise SizeGuardError(f"sampler supports n <= {SAMPLER_MAX_N}")
    if count < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    nbits = 1 << n
    subcubes = _subcube_counter(n, k)
    counts: dict[int, int] = {}
    for _ in range(count):
        x = subcubes(rng.getrandbits(nbits))
        counts[x] = counts.get(x, 0) + 1
    return Histogram(counts, count)


def _board_adjacency(m: int, n: int) -> list[list[int]]:
    """Neighbor lists over cells indexed row-major; edges = domino slots."""
    neighbors: list[list[int]] = [[] for _ in range(m * n)]
    for r in range(m):
        for col in range(n):
            i = r * n + col
            if col + 1 < n:
                neighbors[i].append(i + 1)
                neighbors[i + 1].append(i)
            if r + 1 < m:
                neighbors[i].append(i + n)
                neighbors[i + n].append(i)
    return neighbors


def enumerate_boards(m: int, n: int, parts: int = 1) -> Histogram:
    """Exact distribution of the same-number domino count on 0/1 boards."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    cells = m * n
    space = 1 << cells
    if space > BOARD_GUARD:
        raise SizeGuardError(f"2^{cells} boards exceed the {BOARD_GUARD} guard")
    neighbors = _board_adjacency(m, n)
    blocks = _split_range(space, parts)
    return merge_histograms(_board_block(neighbors, cells, lo, hi) for lo, hi in blocks)


def _board_block(neighbors: list[list[int]], cells: int, lo: int, hi: int) -> Histogram:
    # Start at gray(lo), then flip one cell per step: gray(i) ^ gray(i-1)
    # isolates bit ctz(i), so the statistic updates in O(degree).
    start = lo ^ (lo >> 1)
    board = [(start >> i) & 1 for i in range(cells)]
    x = 0
    for i in range(cells):
        for j in neighbors[i]:
            if j > i and board[i] == board[j]:
                x += 1
    counts: dict[int, int] = {x: 1}
    for step in range(lo + 1, hi):
        cell = (step & -step).bit_length() - 1
        old = board[cell]
        for j in neighbors[cell]:
            if board[j] == old:
                x -= 1
            else:
                x += 1
        board[cell] = 1 - old
        counts[x] = counts.get(x, 0) + 1
    return Histogram(counts, hi - lo)


def histogram_moments(hist: Histogram, r_max: int, family: str | None = None, params=None) -> MomentVector:
    """Exact raw moments sum(value^r * count) / total."""
    entries = []
    for r in range(r_max + 1):
        entries.append(Fraction(sum(v**r * c for v, c in hist.counts.items()), hist.total))
    return MomentVector("raw", entries, family=family, params=params)
