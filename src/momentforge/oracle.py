"""Independent brute-force enumerators producing exact distributions.

Every closed form in the families package is validated against these
histograms with no tolerance: both sides are exact rationals.  Each oracle
visits every configuration and reads its statistic off that configuration's
own bits, with no transfer matrix, recurrence or counting formula; what
keeps them fast is that one configuration costs O(1) or O(n) word-level
integer operations rather than a Python loop over every pattern:

* Schur: a coloring is one bitmask per color.  The monochromatic triples
  (x, y, x+y) with x <= y <= n-x are popcount(w & (w >> x) & M_x), w the
  mask of x's color, so a coloring costs n/2 popcounts; with two colors
  the n/2 masks sit in lanes of one wide word and it costs two.
* Boards walk a Gray code; each step flips one cell and moves the count by
  one popcount of that cell's neighbor mask.
* Permutations walk S_n by plain changes (adjacent transpositions; Knuth,
  TAOCP 7.2.1.2, Algorithm P): inv moves by one per step and maj is re-read
  from the three descent slots the swap touches.
* Boolean functions are bitmasks over the 2^n vertices.  The k-subcubes
  with free coordinates S are counted at once as
  popcount(base_S & AND over T <= S of (f >> offset_T)), with k shift-ANDs.

Two symmetries halve the walks without changing what is counted: rotating
the colors maps Schur colorings one to one and keeps the count, so only
colorings with the element n in color 0 are walked, each standing for c of
them; complementing a board keeps its count, so only boards with the last
cell 0 are walked, each standing for two.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from momentforge.errors import SizeGuardError
from momentforge.moment_algebra import MomentVector
from momentforge.poly_series import Polynomial

__all__ = [
    "Histogram",
    "enumerate_schur",
    "enumerate_permutations",
    "enumerate_boolean",
    "sample_boolean",
    "enumerate_boards",
    "histogram_moments",
]

SCHUR_GUARD = 10_000_000  # colorings
PERM_GUARD = 400_000  # permutations
BOOLEAN_GUARD = 100_000  # boolean functions (exhaustive mode)
BOARD_GUARD = 20_000_000  # boards
# samples * C(n, k) * max(k, 1) * ceil(2^n / 64) word operations; the
# slowest request inside it, oracle --family boolean --n 1 --k 1 --samples
# 6500000, takes 3-4 s as a whole process on one Intel Xeon core, and one
# sample at n = 14, k = 7 (6 150 144 word operations) is inside it
SAMPLER_GUARD = 6_500_000


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

    def pgf(self) -> Polynomial:
        """Probability generating function in q; coefficients sum to 1."""
        top = max(self.counts) if self.counts else 0
        coeffs = [Fraction(self.counts.get(v, 0), self.total) for v in range(top + 1)]
        return Polynomial("q", coeffs)

    def to_csv_rows(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())


def merge_histograms(parts: Iterable[Histogram]) -> Histogram:
    """Exact integer merge; order-independent by associativity of +."""
    counts: dict[int, int] = {}
    total = 0
    for part in parts:
        total += part.total
        for v, c in part.counts.items():
            counts[v] = counts.get(v, 0) + c
    return Histogram(counts, total)


def _tally_histogram(tally: list[int], weight: int) -> Histogram:
    """The histogram of a tally indexed by value, each walked configuration standing for ``weight``."""
    counts = {v: weight * c for v, c in enumerate(tally) if c}
    return Histogram(counts, weight * sum(tally))


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
    # Element e is bit e-1 of a color mask; M_x holds the bits of the y with
    # x <= y <= n-x, for each x <= n/2.
    rows = [(x, ((1 << (n - 2 * x + 1)) - 1) << (x - 1)) for x in range(1, n // 2 + 1)]
    blocks = _split_range(c ** (n - 1), parts)
    if c == 2:
        packed = _schur_lanes(n, rows)
        return merge_histograms(_schur_block_c2(n, packed, lo, hi) for lo, hi in blocks)
    return merge_histograms(_schur_block(n, c, rows, lo, hi) for lo, hi in blocks)


def _schur_lanes(n: int, rows: list[tuple[int, int]]) -> tuple[int, int, list[int], int]:
    """All n/2 rows of a 2-coloring in lanes of one wide word.

    Lane x starts at bit x*W, W = 2n.  For a color mask w, lane x of w*ra
    holds w and lane x of w*rb holds w >> x (the lanes are far enough apart
    that neither product carries), so w*ra & w*rb & (M_x in lane x) flags the
    triples (x, y, x+y) with y and x+y in w.  sel[t] is the lanes of the x
    in color 1 when t is the color-1 mask of 1..n/2; ``every`` is all lanes.
    """
    width = 2 * n
    ra = sum(1 << (x * width) for x, _ in rows)
    rb = sum(1 << (x * width - x) for x, _ in rows)
    lanes = [m << (x * width) for x, m in rows]
    sel = [sum(lane for i, lane in enumerate(lanes) if t >> i & 1) for t in range(1 << len(rows))]
    return ra, rb, sel, sum(lanes)


def _schur_block_c2(n: int, packed: tuple[int, int, list[int], int], lo: int, hi: int) -> Histogram:
    # u is the mask of color 1 over the elements 1..n-1; the element n is color 0
    ra, rb, sel, every = packed
    full = (1 << n) - 1
    low = len(sel) - 1
    tally = [0] * (every.bit_count() + 1)
    for u in range(lo, hi):
        v = full ^ u
        s = sel[u & low]
        tally[(u * ra & u * rb & s).bit_count() + (v * ra & v * rb & (every ^ s)).bit_count()] += 1
    return _tally_histogram(tally, 2)


def _schur_block(n: int, c: int, rows: list[tuple[int, int]], lo: int, hi: int) -> Histogram:
    # Colorings in the order of their base-c index over the elements 1..n-1
    # (digit e-1 is the color of e), the element n in color 0; each step is
    # an odometer increment that moves a few bits between the color masks,
    # which are keyed by color because c can far exceed n.
    color = []
    index = lo
    for _ in range(n - 1):
        index, digit = divmod(index, c)
        color.append(digit)
    color.append(0)
    masks: dict[int, int] = {}
    for e, j in enumerate(color):
        masks[j] = masks.get(j, 0) | 1 << e
    tally = [0] * (sum(m.bit_count() for _, m in rows) + 1)
    for _ in range(lo, hi):
        x = 0
        for shift, m in rows:
            w = masks[color[shift - 1]]
            x += (w & (w >> shift) & m).bit_count()
        tally[x] += 1
        # the increment past the last coloring only recolors the element n
        e = 0
        while True:
            j = color[e]
            bit = 1 << e
            masks[j] ^= bit
            j += 1
            if j < c:
                color[e] = j
                masks[j] = masks.get(j, 0) | bit
                break
            color[e] = 0
            masks[0] |= bit
            e += 1
    return _tally_histogram(tally, c)


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
    """Joint (inv, maj) counts over S_n, walked by plain changes."""
    if n < 1:
        raise ValueError("need n >= 1")
    if math.factorial(n) > PERM_GUARD:
        raise SizeGuardError(f"{n}! exceeds the {PERM_GUARD} guard")
    width = n * (n - 1) // 2 + 1
    tally = [0] * (width * width)
    # a[1..n] is the permutation; the sentinels a[0] = 0 and a[n+1] = n+1
    # make the descent slots at either end read "no descent" before and after.
    a = list(range(n + 2))
    offset = [0] * (n + 1)
    direction = [1] * (n + 1)
    inv = maj = 0
    while True:
        tally[inv * width + maj] += 1
        # Algorithm P: find the largest element j that can still move one
        # place in its direction; s counts the larger elements at the left end.
        j, s = n, 0
        while True:
            q = offset[j] + direction[j]
            if q < 0:
                direction[j] = -direction[j]
                j -= 1
            elif q == j:
                if j == 1:
                    return JointHistogram(
                        {(v // width, v % width): cnt for v, cnt in enumerate(tally) if cnt}, n
                    )
                s += 1
                direction[j] = -direction[j]
                j -= 1
            else:
                break
        # swap a[p] and a[p+1]: slot p flips, slots p-1 and p+1 are re-read
        p = j - max(offset[j], q) + s
        offset[j] = q
        left, right, prev, nxt = a[p], a[p + 1], a[p - 1], a[p + 2]
        if left < right:
            inv += 1
            maj += p
        else:
            inv -= 1
            maj -= p
        maj += (p - 1) * ((prev > right) - (prev > left)) + (p + 1) * ((left > nxt) - (right > nxt))
        a[p], a[p + 1] = right, left


def _coordinate_zero_mask(n: int, i: int) -> int:
    """The vertices of the n-cube whose coordinate i is 0, by doubling a 2^(i+1)-bit period."""
    mask, width = (1 << (1 << i)) - 1, 2 << i
    while width < 1 << n:
        mask |= mask << width
        width <<= 1
    return mask


@lru_cache(maxsize=16)
def _subcube_plan(n: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One (shifts, base) pair per set S of k free coordinates.

    A k-subcube with free coordinates S is a base vertex v, 0 on S, with f
    set at v + offset_T for every T <= S.  AND-ing f with itself shifted down
    by 2^i for each i in S sets bit v exactly then, and ``base`` keeps the v
    that are 0 on S.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    zero = [_coordinate_zero_mask(n, i) for i in range(n)]
    plan = []
    for free in itertools.combinations(range(n), k):
        base = (1 << (1 << n)) - 1
        for i in free:
            base &= zero[i]
        plan.append((tuple(1 << i for i in free), base))
    return tuple(plan)


def _subcube_counter(n: int, k: int):
    """The function mask -> number of k-subcubes of the n-cube inside the mask."""
    if k == 0:
        return int.bit_count
    plan = _subcube_plan(n, k)

    def count(mask: int) -> int:
        x = 0
        for shifts, base in plan:
            g = mask
            for s in shifts:
                g &= g >> s
            x += (g & base).bit_count()
        return x

    return count


@lru_cache(maxsize=None)
def _boolean_counts(n: int, k: int) -> tuple[tuple[int, int], ...]:
    subcubes = _subcube_counter(n, k)
    tally = [0] * (math.comb(n, k) * (1 << (n - k)) + 1)
    for f in range(1 << (1 << n)):
        tally[subcubes(f)] += 1
    return tuple((v, c) for v, c in enumerate(tally) if c)


def enumerate_boolean(n: int, k: int) -> Histogram:
    """Exact distribution of the k-subcube count over all boolean functions."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    space = 1 << (1 << n)
    if space > BOOLEAN_GUARD:
        raise SizeGuardError(f"2^(2^{n}) = {space} functions exceed the {BOOLEAN_GUARD} guard")
    return Histogram(dict(_boolean_counts(n, k)), space)


def sample_boolean(n: int, k: int, count: int, seed: int) -> Histogram:
    """Seeded Monte Carlo histogram of the k-subcube count.

    The PRNG is Python's Mersenne Twister (random.Random) with the given
    64-bit seed; reports should record the seed for reproducibility.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if count < 1:
        raise ValueError("need at least one sample")
    nbits = 1 << n
    work = count * math.comb(n, k) * max(k, 1) * -(-nbits // 64)
    if work > SAMPLER_GUARD:
        raise SizeGuardError(
            f"{count} samples of the {k}-subcube count at n={n} need {work} word operations, "
            f"beyond the SAMPLER_GUARD = {SAMPLER_GUARD} size guard"
        )
    rng = random.Random(seed)
    subcubes = _subcube_counter(n, k)
    # a dict, not a tally list: the value range can far exceed the sample count
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
    neighbors = [sum(1 << j for j in nb) for nb in _board_adjacency(m, n)]
    # Gray codes below 2^(cells-1) have the last cell 0
    blocks = _split_range(space >> 1, parts)
    return merge_histograms(_board_block(m, n, neighbors, lo, hi) for lo, hi in blocks)


def _board_block(m: int, n: int, neighbors: list[int], lo: int, hi: int) -> Histogram:
    # Start at gray(lo), then flip one cell per step: gray(s) ^ gray(s-1)
    # isolates bit ctz(s).  The flipped cell's a neighbors at 1 out of d
    # move the count by d - 2a when it was 1 and by 2a - d when it was 0.
    flips = [(1 << cell, nb, nb.bit_count()) for cell, nb in enumerate(neighbors)]
    # Steps run in chunks of 2^low; step t of every chunk but the first
    # flips the same cell, ctz(t), and step 0 of chunk a flips low + ctz(a).
    low = min(m * n - 1, 10)
    ruler = [flips[(t & -t).bit_length() - 1] for t in range(1, 1 << low)]
    board = lo ^ (lo >> 1)
    right = sum(1 << (r * n + col) for r in range(m) for col in range(n - 1))
    down = (1 << ((m - 1) * n)) - 1
    x = (right & ~(board ^ (board >> 1))).bit_count() + (down & ~(board ^ (board >> n))).bit_count()
    tally = [0] * (m * (n - 1) + n * (m - 1) + 1)
    tally[x] = 1
    for a in range(lo >> low, ((hi - 1) >> low) + 1):
        start = a << low
        chunk = [flips[low + (a & -a).bit_length() - 1] if a else None, *ruler]
        for bit, nb, d in chunk[max(lo + 1 - start, 0) : hi - start]:
            if board & bit:
                x += d - 2 * (nb & board).bit_count()
            else:
                x += 2 * (nb & board).bit_count() - d
            board ^= bit
            tally[x] += 1
    return _tally_histogram(tally, 2)


def histogram_moments(hist: Histogram, r_max: int) -> MomentVector:
    """Exact raw moments sum(value^r * count) / total, r <= r_max; ValueError for r_max < 0."""
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    entries = []
    for r in range(r_max + 1):
        entries.append(Fraction(sum(v**r * c for v, c in hist.counts.items()), hist.total))
    return MomentVector("raw", entries)
