"""Independent brute-force enumerators producing exact distributions.

Every closed form in the families package is validated against these
histograms with no tolerance: both sides are exact rationals.  Each oracle
visits every configuration and reads its statistic off that configuration's
own bits, with no transfer matrix, recurrence or counting formula.

Schur colorings, 0/1 boards and boolean functions are counted by one
lane-parallel kernel.  A configuration is an index t whose base-radix digits
are the values of its sites (colors of the elements 1..n, cells of the
board, values of the function at the vertices of the n-cube), and its
statistic counts the patterns it matches: sites that all carry one value out
of an accepted set (the three elements of a Schur triple share a color, the
two cells of a domino slot hold the same number, the 2^k vertices of a
k-subcube are all 1).  The kernel runs over chunks of at most LANE_BITS
consecutive indices, lane t of a word standing for configuration t:

* a site becomes one lane word per value, whose bit t is set when digit i
  of t is that value (for base 2, the coordinate patterns of
  ``_digit_zero``); the digits above a chunk are fixed, so they are
  constants there;
* a pattern becomes one indicator word, the AND of its sites' words for the
  accepted value, ORed over the values when no site fixes it; a pattern whose
  sites all lie above the chunk adds one to every lane, a scalar offset;
* the indicators are added into a bit-sliced counter, a few bit-planes
  updated by ripple carries, and one split over the planes reads every
  lane's count into the histogram.  The patterns inside the low digits make
  the same words in every chunk, so their planes are built once.

Permutations run on the same words.  Configuration t is the permutation
whose inversion table L_1..L_n (L_i counts the later entries below the one
at position i) has t's mixed-radix digits: site k is L_(n-k), of radix k+1,
so a chunk of 8! lanes holds all of S_8.  inv is the sum of the sites: the
word of a site's value v is added into a bit-sliced counter at weight v.  maj
reads the descents off the table alone, since position i is a descent
exactly when L_i > L_(i+1): if the entry at i exceeds the next, that entry
and every later one below it count towards L_i, so L_i >= L_(i+1) + 1;
otherwise every later entry below the one at i is below the next too, so
L_i <= L_(i+1).  The word of lanes with site k above site k-1 is added into
a second counter at weight n-k.  Sites above the chunk add scalar offsets
to both counts, except the descent slot between the lowest of them and the
chunk's top site, a word per chunk; one split over the inv planes, then the
maj planes, reads each lane's (inv, maj) pair into the joint tally.

Each guard checks a bound on the bit length of its size (c^n, n!, 2^(mn),
2^(2^n), the sampler's word operations) first, so a size certainly past
the guard is refused before it is built.

The boolean sampler packs the functions it draws into slots of whole 8-byte
words of one integer per batch of at most LANE_BITS bits.  The k-subcubes
with free coordinates S are counted per slot as
popcount(base_S & AND over T <= S of (f >> offset_T)), with k shift-ANDs per
batch and a SWAR popcount per slot; a batch of one draw (n >= 16, or one
sample asked for) takes ``int.bit_count`` of each entry.

Two symmetries halve the enumerations without changing what is counted:
rotating the colors maps Schur colorings one to one and keeps the count, so
only colorings with the element n in color 0 are counted, each standing for
c of them; complementing a board keeps its count, so only boards with the
last cell 0 are counted, each standing for two.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from momentforge.families.common import charge_size
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
# slowest request inside it, oracle --family boolean --n 0 --k 0 --samples
# 6500000, takes 1.6-2.3 s as a whole process on one Intel Xeon core, and one
# sample at n = 14, k = 7 (6 150 144 word operations) is inside it
SAMPLER_GUARD = 6_500_000
# Most bits of one lane word (one bit per configuration of a chunk) and of
# one sampler batch; 2^16 bits are 8 KB, large enough that each word
# operation's interpreter overhead is small beside its work.
LANE_BITS = 1 << 16


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
        """Probability generating function in q, the counts over the total; coefficients sum to 1."""
        top = max(self.counts) if self.counts else 0
        return Polynomial("q", [self.counts.get(v, 0) for v in range(top + 1)], self.total)


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
    """The histogram of a tally indexed by value, each counted configuration standing for ``weight``."""
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


def _repeat(word: int, width: int, times: int) -> int:
    """``times`` copies of ``word`` at a stride of ``width`` bits, by doubling."""
    out = shift = 0
    while times:
        if times & 1:
            out |= word << shift
            shift += width
        times >>= 1
        if times:
            word |= word << width
            width <<= 1
    return out


def _digit_zero(run: int, radix: int, lanes: int) -> int:
    """The lanes t < ``lanes`` whose digit of place value ``run`` and radix ``radix`` is 0.

    ``lanes`` is a multiple of run·radix; the radices may differ from digit
    to digit (mixed radix), ``run`` being the product of those below.
    Shifted up by v·run it is the lanes whose digit is v.
    """
    return _repeat((1 << run) - 1, run * radix, lanes // (run * radix))


def _add(planes: list[int], word: int, weight: int = 1) -> None:
    """Add word·weight into a bit-sliced counter (plane j holds bit j of every lane's count)."""
    for shift in range(weight.bit_length()):
        if not weight >> shift & 1:
            continue
        carry = word
        planes.extend([0] * (shift - len(planes)))
        for j in range(shift, len(planes)):
            plane = planes[j]
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
        if carry:
            planes.append(carry)


def _read(counters: Sequence[tuple[list[int], int]], live: int, offset: int, tally: list[int]) -> None:
    """Add every live lane's sum of scale·count over the (planes, scale) ``counters``, plus ``offset``, into ``tally``.

    One split over the planes, counter by counter from the highest plane
    down, groups the lanes by their value.
    """
    groups = [(live, offset)]
    for planes, scale in counters:
        for j in reversed(range(len(planes))):
            plane = planes[j]
            weight = scale << j
            split = []
            for lanes, value in groups:
                one = lanes & plane
                if one:
                    split.append((one, value + weight))
                if one != lanes:
                    split.append((lanes ^ one, value))
            groups = split
    for lanes, value in groups:
        tally[value] += lanes.bit_count()


def _pattern_histogram(
    radix: int, varying: int, patterns: Sequence[tuple[int, ...]], values: Sequence[int],
    parts: int, weight: int,
) -> Histogram:
    """Histogram over the indices t < radix^varying of how many patterns t matches.

    Site i of t is its base-radix digit i (0 for i >= varying); a pattern is
    a tuple of sites and matches when they all hold one value in ``values``.
    ``parts`` blocks of the index range are counted apart and merged, each
    counted index standing for ``weight`` configurations.
    """
    low = 0
    while low < varying and radix ** (low + 1) <= LANE_BITS:
        low += 1
    lanes = radix**low
    words = []
    for i in range(low):
        zero = _digit_zero(radix**i, radix, lanes)
        words.append([zero << (v * radix**i) for v in range(radix)])

    def holding(sites: list[int] | tuple[int, ...], v: int) -> int:
        """The lanes whose digits at ``sites``, all below ``low``, are all v."""
        word = words[sites[0]][v]
        for i in sites[1:]:
            word &= words[i][v]
        return word

    # the patterns inside the low digits give the same words in every chunk
    base: list[int] = []
    cross = []
    for sites in patterns:
        if sites[-1] < low:
            word = 0
            for v in values:
                word |= holding(sites, v)
            _add(base, word)
        else:
            cross.append(([i for i in sites if i < low], [i - low for i in sites if i >= low]))

    def block(lo: int, hi: int) -> Histogram:
        tally = [0] * (len(patterns) + 1)
        for chunk in range(lo // lanes, -(-hi // lanes)):
            start = chunk * lanes
            live = (1 << (min(hi, start + lanes) - start)) - (1 << (max(lo, start) - start))
            digits = []
            rest = chunk
            while rest:
                rest, digit = divmod(rest, radix)
                digits.append(digit)
            planes = base.copy()
            offset = 0
            for inside, above in cross:
                fixed = {digits[i] if i < len(digits) else 0 for i in above}
                if len(fixed) > 1:
                    continue
                v = fixed.pop()
                if v not in values:
                    continue
                if inside:
                    _add(planes, holding(inside, v))
                else:
                    offset += 1
            _read([(planes, 1)], live, offset, tally)
        return _tally_histogram(tally, weight)

    return merge_histograms(block(lo, hi) for lo, hi in _split_range(radix**varying, parts))


def enumerate_schur(n: int, c: int, parts: int = 1) -> Histogram:
    """Exact distribution of the monochromatic Schur-triple count.

    ``parts`` > 1 splits the coloring space into contiguous blocks that are
    enumerated independently and merged (deterministic by exact addition).
    """
    if n < 1 or c < 2:
        raise ValueError("need n >= 1 and c >= 2")
    # c^n >= 2^(n (bit_length(c) - 1))
    charge_size(n * (c.bit_length() - 1) + 1, lambda: c**n, SCHUR_GUARD, "SCHUR_GUARD", f"the colorings {c}^{n}")
    # element e is site e-1; the triples (x, y, x+y) with x <= y <= n-x
    triples = [
        tuple(sorted({x - 1, y - 1, x + y - 1}))
        for x in range(1, n // 2 + 1)
        for y in range(x, n - x + 1)
    ]
    # the element n, site n-1, is above the varying digits: color 0
    return _pattern_histogram(c, n - 1, triples, range(c), parts, c)


def enumerate_permutations(n: int) -> JointHistogram:
    """Joint (inv, maj) counts over S_n, read off the inversion tables."""
    if n < 1:
        raise ValueError("need n >= 1")
    charge_size(n, lambda: math.factorial(n), PERM_GUARD, "PERM_GUARD", f"the permutations {n}!")
    # site k is the inversion-table entry L_(n-k), of radix k+1; the low sites vary inside a chunk
    low = 1
    while low < n and math.factorial(low + 1) <= LANE_BITS:
        low += 1
    lanes = math.factorial(low)

    def below(k: int, a: int) -> int:
        """The lanes whose site k < low holds less than a."""
        run = math.factorial(k)
        return _repeat((1 << min(a, k + 1) * run) - 1, (k + 1) * run, lanes // ((k + 1) * run))

    # inv is the sum of the sites; position i = n-k is a descent, adding i to
    # maj, exactly when site k > site k-1 (L_i > L_(i+1))
    inv: list[int] = []
    maj: list[int] = []
    for k in range(1, low):
        run = math.factorial(k)
        zero = _digit_zero(run, k + 1, lanes)
        descent = 0
        for v in range(1, k + 1):
            word = zero << v * run  # the lanes whose site k is v
            _add(inv, word, v)
            descent |= word & below(k - 1, v)
        _add(maj, descent, n - k)

    width = n * (n - 1) // 2 + 1
    tally = [0] * (width * width)
    live = (1 << lanes) - 1
    for chunk in range(math.factorial(n) // lanes):
        # the sites low..n-1 are fixed in a chunk: the chunk index's mixed-radix digits
        high = []
        rest = chunk
        for k in range(low, n):
            rest, digit = divmod(rest, k + 1)
            high.append(digit)
        offset = sum(high) * width
        for k in range(low + 1, n):
            if high[k - low] > high[k - 1 - low]:
                offset += n - k
        planes = maj
        if high:  # the descent slot between site low and site low-1 straddles the chunk's edge
            planes = maj.copy()
            _add(planes, below(low - 1, high[0]), n - low)
        _read([(inv, width), (planes, 1)], live, offset, tally)
    return JointHistogram({(v // width, v % width): cnt for v, cnt in enumerate(tally) if cnt}, n)


def _boolean_counts(n: int, k: int) -> Histogram:
    # vertex v is site v; a k-subcube is a base vertex v, 0 on the free
    # coordinates S, and the 2^k vertices v | T for T <= S
    cubes = []
    for free in itertools.combinations(range(n), k):
        mask = sum(1 << i for i in free)
        offsets = [sum(t) for j in range(k + 1) for t in itertools.combinations([1 << i for i in free], j)]
        cubes += [tuple(sorted(v | t for t in offsets)) for v in range(1 << n) if not v & mask]
    return _pattern_histogram(2, 1 << n, cubes, (1,), 1, 1)


def enumerate_boolean(n: int, k: int) -> Histogram:
    """Exact distribution of the k-subcube count over all boolean functions."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    charge_size(
        (1 << min(n, 64)) + 1, lambda: 1 << (1 << n), BOOLEAN_GUARD, "BOOLEAN_GUARD", f"the functions 2^(2^{n})"
    )
    return _boolean_counts(n, k)


def sample_boolean(n: int, k: int, count: int, seed: int) -> Histogram:
    """Seeded Monte Carlo histogram of the k-subcube count.

    The PRNG is Python's Mersenne Twister (random.Random) with the given
    64-bit seed; reports should record the seed for reproducibility.  Each
    sample is one ``getrandbits(2^n)`` draw, taken in order.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if count < 1:
        raise ValueError("need at least one sample")
    # at least ceil(2^n / 64) word operations
    charge_size(
        n - 5, lambda: count * math.comb(n, k) * max(k, 1) * -(-(1 << n) // 64), SAMPLER_GUARD, "SAMPLER_GUARD",
        f"{count} samples of the {k}-subcube count at n={n}: word operations",
    )
    nbits = 1 << n
    rng = random.Random(seed)
    slot = max(nbits, 64)  # whole 8-byte words per sample
    per_batch = min(count, max(1, LANE_BITS // slot))
    # a Counter, not a tally list: the value range can far exceed the sample count
    counts: Counter[int] = Counter()
    batch = _batch_counter(n, k, slot, per_batch)
    for start in range(0, count, per_batch):
        counts.update(batch(list(map(rng.getrandbits, itertools.repeat(nbits, min(per_batch, count - start))))))
    return Histogram(dict(counts), count)


# A batch sums byte popcounts of at most this many plan entries before it
# widens them to slot counts: each byte then holds at most 31 * 8 = 248.
_BYTE_SUMS = 31


def _batch_counter(n: int, k: int, slot: int, size: int):
    """The function draws -> k-subcube count of each, for up to ``size`` draws of 2^n bits.

    The draws sit in ``slot``-bit slots of one integer (slot a multiple of
    2^n; the bits past 2^n are 0), draw j from bit j·slot, so every
    shift-AND of the plan runs once per batch.  The plan's base for free
    coordinates S is the AND over i in S of the positions whose coordinate i
    is 0: built from n masks of the batch's width, not one repeated base per
    S, so memory stays at n batch words whatever C(n, k) is.  No vertex it
    keeps reaches past its own slot.  A batch of one draw is counted with
    ``int.bit_count``, the others by a SWAR popcount per slot.
    """
    bits = slot * size
    # k = 0 ANDs no mask; n of them would be n more words of 2^n bits
    zero = [_digit_zero(1 << i, 2, bits) for i in range(n)] if k else []
    cubes = [(tuple(1 << i for i in free), [zero[i] for i in free]) for free in itertools.combinations(range(n), k)]

    def matched(g: int, shifts: tuple[int, ...], masks: list[int]) -> int:
        """The base vertices of the subcubes, all of whose vertices are set in g."""
        for s in shifts:
            g &= g >> s
        for mask in masks:
            g &= mask
        return g

    if size == 1:
        return lambda draws: [sum(matched(draws[0], *cube).bit_count() for cube in cubes)]
    m1, m2, m4 = (_repeat(b, 8, bits // 8) for b in (0x55, 0x33, 0x0F))
    # fields of 2w bits from pairs of w-bit fields, up to the slot width
    widen = []
    w = 8
    while w < slot:
        widen.append((w, _repeat((1 << w) - 1, 2 * w, bits // (2 * w))))
        w *= 2
    width = slot // 8
    # two draws fit a batch only for n <= 15, so a count, at most 3^n, is the
    # low 8 bytes of its slot; a short batch reads the empty slots as 0
    unpack = struct.Struct("<" + f"Q{width - 8}x" * size).unpack

    def counts(draws: list[int]) -> tuple[int, ...]:
        slots = map(int.to_bytes, draws, itertools.repeat(width), itertools.repeat("little"))
        packed = int.from_bytes(b"".join(slots), "little")
        total = 0
        for first in range(0, len(cubes), _BYTE_SUMS):
            sums = 0
            for cube in cubes[first : first + _BYTE_SUMS]:
                g = matched(packed, *cube)
                g -= (g >> 1) & m1
                g = (g & m2) + ((g >> 2) & m2)
                sums += (g + (g >> 4)) & m4
            for w, mask in widen:
                sums = (sums & mask) + ((sums >> w) & mask)
            total += sums
        return unpack(total.to_bytes(bits // 8, "little"))[: len(draws)]

    return counts


def enumerate_boards(m: int, n: int, parts: int = 1) -> Histogram:
    """Exact distribution of the same-number domino count on 0/1 boards."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    cells = m * n
    charge_size(cells + 1, lambda: 1 << cells, BOARD_GUARD, "BOARD_GUARD", f"the boards 2^{cells}")
    # cell (r, col) is site r*n + col; a slot joins two neighboring cells
    slots = [(i, i + 1) for i in range(cells) if (i + 1) % n] + [(i, i + n) for i in range(cells - n)]
    # the last cell, site cells-1, is above the varying digits: 0
    return _pattern_histogram(2, cells - 1, slots, range(2), parts, 2)


def histogram_moments(hist: Histogram, r_max: int) -> MomentVector:
    """Exact raw moments sum(value^r * count) / total, r <= r_max; ValueError for r_max < 0."""
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    values = list(hist.counts)
    # each value's count * v^r, carried from order r - 1 by one product with v
    terms = list(hist.counts.values())
    entries = []
    for _ in range(r_max + 1):
        entries.append(Fraction(sum(terms), hist.total))
        terms = [t * v for t, v in zip(terms, values)]
    return MomentVector("raw", entries)
