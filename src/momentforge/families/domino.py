"""Same-number domino counts on random 0/1 boards.

With A = 2mn - m - n domino slots and mu = A/2, treating the slots as
independent fair coins makes X ~ Binomial(2 mu, 1/2), whose moments are
polynomials in mu alone (the shared Binomial(N, 1/2) route at N = 2 mu,
``common.half_binomial_moments``).  That is exact only for r <= 3 or on a
1-by-n (m-by-1) board, where the slots form a forest.  On a board with
m, n >= 2 the four slots around a lattice square are all same-number with
probability 1/2^3, not 1/2^4, so from r = 4 on the moments depend on the
board and not on mu alone (2x2 at r = 4: the mu-form gives 85/2, the true
value is 44).  The mu-polynomials are kept as the printed closed forms on
that domain, where the numeric moments are those of Binomial(A, 1/2).
Everywhere else the moments come from the board's even subgraphs: only
unions of cycles of at most r slots move E[X^r] away from the independent
case, and each is the boundary of one set of unit faces of the grid, so
the sums b_k = sum over boards of C(X, k) follow from N_j, the number of
face sets of perimeter j <= r (MacWilliams' identity, at ``binomial_sums``).
A sparse face sweep across the shorter side w = min(m, n) counts them,
keeping only the face profiles whose sets can still close within r edges.
It runs at most S(r) = b + floor(r/4) + 1 rows, b = max(1, floor(r/2) - 1):
each N_j is a polynomial of degree <= floor(j/4) in the length
L = max(m, n), exact for L >= b, so for L past S(r) it is fitted on rows
b..S(r) with an exact check and evaluated at L.  The longest sweep run
per (w, r) thus serves every board of that width, and a longer board costs
only the conversion of its r+1 counts into the sums b_k, integers of about
wL bits.

The 1-by-n board is Binomial(n - 1, 1/2): its PGF is the binomial row
over 2^(n-1) (``common.half_binomial_pgf``), and its MGF deviation reads
cosh(t/(2 sigma))^(n-1).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from momentforge import oracle
from momentforge.errors import ConsistencyError
from momentforge.exact_core import forward_differences
from momentforge.families import common
from momentforge.families.common import Family, charge, half_binomial_moments, half_binomial_pgf
from momentforge.moment_algebra import MomentVector, binomial_to_raw
from momentforge.poly_series import Polynomial

__all__ = ["FAMILY", "binomial_sums"]


def slot_count(m: int, n: int) -> int:
    """A = 2mn - m - n, the number of domino positions."""
    _check(m, n)
    return 2 * m * n - m - n


def mean(m: int, n: int) -> Fraction:
    """mu = mn - m/2 - n/2 = A/2."""
    return Fraction(slot_count(m, n), 2)


def in_closed_form_domain(m: int, n: int, r: int) -> bool:
    """True where the mu-polynomials of orders <= r are exact: r <= 3 or min(m, n) = 1."""
    return r <= 3 or min(m, n) == 1


def _moments(r_max: int, p: dict) -> MomentVector:
    """Central moments of Binomial(A, 1/2) on the domain of the mu-polynomials, else raw ones.

    The raw ones come from the face sweep's E[C(X, k)] = b_k / 2^{mn} (:func:`binomial_sums`),
    a shift for k <= mn, where b_k is 2^{mn-k} times an integer.
    """
    m, n = p["m"], p["n"]
    _check(m, n)
    if r_max < 0:
        raise ValueError("need r >= 0")
    if in_closed_form_domain(m, n, r_max):
        return MomentVector("central", half_binomial_moments(slot_count(m, n), r_max, central=True))
    cells, b = m * n, binomial_sums(m, n, r_max)
    binomial = [Fraction(b_k >> max(cells - k, 0), 1 << min(k, cells)) for k, b_k in enumerate(b)]
    return binomial_to_raw(MomentVector("binomial", binomial))


# Bound on max(F P (limbs + 32), w max(L, S^2/2) r) for w = min(m, n),
# L = max(m, n) and S = min(L, 2r+2).  The first term is the work of one
# face sweep (:func:`_face_sweep`): F = (w-1)(S-1) faces, each updating at
# most P pairs of profiles, P the number of ways to set at most r/2 of the
# w-2 faces outside the pair, on packed words of r/2+1 counts of
# ``_count_bits`` bits, ``limbs`` 64-bit limbs long.  In process on one
# Intel Xeon core a pair update costs about 0.6 us plus 0.02 us a limb, so
# the fixed cost is worth 32 limbs.  The second is the size of the sums:
# the r+1 sums b_k of the board, integers of about wL bits each, and the
# counts a sweep keeps for each of S rows.  S is the height the sweep ran
# while N_j was only known to be a polynomial of degree <= j in L; it now
# runs min(L, S(r)) rows (``_fit_rows``), about 3/8 as many, so the sweep
# term overstates a sweep 3 to 4 times, and the guard still serves and
# refuses what it did.  At the last order served at each width (w = 2 at
# r = 291, w = 8 at r = 129, w = 12 at r = 38, w = 16 at r = 11) a fresh
# sweep and its sums take 0.02 to 0.8 s in process (0.09 to 2.7 s over
# 2r+2 rows), and a length at the size term's edge 1.4 s (2 x 170000 at
# r = 291) to 2.8-3.6 s (12 x 210000 at r = 38) as a whole process.  Where r/2 < w-2 the bound P is far above the profiles that
# survive, and the sweep is faster still.
TRANSFER_GUARD = 10**8

# N_0..N_r per row count from the longest sweep run so far, per (w, r); a
# sweep's rows do not depend on where it stops, so it serves every shorter
# board.
_SWEPT: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def binomial_sums(m: int, n: int, r: int) -> tuple[int, ...]:
    """b_k = sum over all 2^{mn} boards of C(X, k), for k = 0..r.

    The slots are the edges of the m-by-n grid graph.  A board's
    disagreeing slots form a uniform element of the graph's cut space, whose
    dual code is the cycle space; a cycle of the planar grid is the boundary
    of exactly one set of unit faces.  So, summing 2^(components) over the
    k-sets of slots that agree (MacWilliams 1963, at x = 1+z, y = 1),

        b_k = 2^{mn-k} sum_{j<=k} N_j C(A-j, k-j),

    with N_j the number of face sets whose perimeter, their boundary in the
    grid graph, has j edges (:func:`_face_sweep`).  The grid is bipartite,
    so N_j = 0 for odd j, and N_4 counts the unit squares.

    Let w = min(m, n) be the width, L = max(m, n) the length,
    b = max(1, floor(r/2) - 1) and S(r) = b + floor(r/4) + 1.  The sweep
    runs min(L, S(r)) rows and records N_0..N_r for each row count; the
    longest sweep run per (w, r) is kept and read by every later request of
    at most as many rows.  For L <= S(r) the counts are row L.  Longer
    boards are served by polynomials in L:

    N_j(L) is a polynomial in L of degree <= floor(j/4) for
    L >= max(1, j/2 - 1).  Proof: cut a face set into blocks, the maximal
    runs of consecutive nonempty rows of faces.  Blocks apart by an empty
    row share no edge, so the perimeter is the sum of the blocks'.  A block
    of height h has perimeter >= 2h + 2: each of its rows has a run of
    faces, with a left and a right edge, and its top and bottom rows an edge
    above and below.  So a set of perimeter j has B <= floor(j/4) blocks,
    of total height H <= j/2 - B.  The width is fixed, so a block's shape
    and perimeter do not depend on L, and a given ordered tuple of blocks
    fits into the L-1 rows of faces, an empty row between neighbours, in
    C(L - H, B) ways, a polynomial of degree B in L equal to the count
    wherever L - H >= 0.  Summing over the finitely many tuples of
    perimeter j proves the bound (N_0 = 1 is the empty set).  Transposing
    the board gives the same bound in the width.

    Every j <= r is then exact from row b on, and of degree <= floor(r/4),
    so each N_j is fitted on rows b..S(r) by the walk the quasi-polynomial
    fits use, ``exact_core.forward_differences``: past its first
    floor(j/4)+1 rows every row, one at least, is a check, else
    ConsistencyError.  It is evaluated in Newton form,
    sum_i Delta^i C(L-b, i), with the binomials shared by every order, and
    the counts are turned into the sums b_k once, at L.

    Both terms of TRANSFER_GUARD are charged, the size first: it needs no
    binomial, so a large r or board is refused after O(1) arithmetic.
    """
    _check(m, n)
    if r < 0:
        raise ValueError("need r >= 0")
    w, length = min(m, n), max(m, n)
    rows = min(length, 2 * r + 2)  # the height the guard weighs
    span = max(length, rows * rows // 2)
    height = min(length, _fit_rows(r)[1])  # the height swept
    sweep = _SWEPT.get((w, r), ())
    runs = len(sweep) < height
    # a sweep served from the cache is bounded as one that runs, but a grid is charged only the sums
    charge(
        w * span * r, TRANSFER_GUARD, "TRANSFER_GUARD",
        f"face sweep for the {m}x{n} board at r = {r} keeps sums of size w*max(L, S^2/2)*r = {w}*{span}*{r}",
        summed=runs,
    )
    charge(w * length * r, TRANSFER_GUARD, "TRANSFER_GUARD", f"the sums of the {m}x{n} board at r = {r}", alone=False)
    faces = (w - 1) * (rows - 1)
    pairs = sum(math.comb(w - 2, i) for i in range(min(w - 2, r // 2) + 1))
    # only now is w*S^2*r small enough for the binomial inside _count_bits to be cheap
    limbs = -(-_count_bits(w, rows, r) * (r // 2 + 1) // 64)
    charge(
        faces * pairs * (limbs + 32), TRANSFER_GUARD, "TRANSFER_GUARD",
        f"face sweep for the {m}x{n} board at r = {r} needs work F*P*(limbs + 32) = {faces}*{pairs}*{limbs + 32}",
        summed=runs,
    )
    if runs:
        sweep = _SWEPT[w, r] = _face_sweep(w, height, r)
    counts = sweep[length - 1] if length <= height else _extend(sweep, w, r, length)
    return _sums_from_counts(counts, w, length)


def _fit_rows(r: int) -> tuple[int, int]:
    """(b, S(r)): the first and last rows the polynomials in the length are fitted on at order r."""
    first = max(1, r // 2 - 1)
    return first, first + r // 4 + 1


def _extend(sweep: tuple[tuple[int, ...], ...], w: int, r: int, length: int) -> list[int]:
    """N_0..N_r at ``length`` > S(r) rows from the polynomials in the length fitted to ``sweep``."""
    first, last = _fit_rows(r)
    binomials = common.binomial_row(length - first, r // 4 + 1)  # C(L-b, i), shared by every order
    counts = []
    for j in range(r + 1):
        column = [sweep[rows - 1][j] for rows in range(first, last + 1)]
        if not any(column):  # every odd j: the grid is bipartite
            counts.append(0)
            continue
        diffs, miss = forward_differences(column, j // 4)
        if miss is not None:
            raise ConsistencyError(
                f"width {w} at r = {r}: N_{j} on rows {first}..{last} "
                f"is not a polynomial of degree <= {j // 4} in the number of rows"
            )
        counts.append(sum(d * binomial for d, binomial in zip(diffs, binomials)))
    return counts


def _sums_from_counts(counts, w: int, length: int) -> tuple[int, ...]:
    """b_k = 2^{wL-k} sum_j N_j C(A-j, k-j), k <= r, from the perimeter counts of a w-by-L board.

    The inner sum is [z^k] of sum_j N_j z^j (1+z)^(A-j), computed as
    (1+z)^(A-r) times sum_j N_j z^j (1+z)^(r-j), so that only the r+1
    binomials C(A-r, i) involve A (for A < r they are the coefficients of a
    power series; the product is still the polynomial).
    """
    r = len(counts) - 1
    slots = 2 * w * length - w - length
    inner = [0] * (r + 1)
    row = [1]  # C(r-j, i) for j = r, r-1, ..., 0
    for j in range(r, -1, -1):
        if counts[j]:
            for i, binomial in enumerate(row):
                inner[j + i] += counts[j] * binomial
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    outer = common.binomial_row(slots - r, r + 1)  # C(A-r, i)
    sums = []
    for k in range(r + 1):
        total = sum(outer[k - i] * inner[i] for i in range(k + 1))
        shift = w * length - k
        if shift < 0 and total & ((1 << -shift) - 1):
            raise ConsistencyError(
                f"width {w}, {length} rows: the sum of C(X, {k}) over the boards is not an integer"
            )
        sums.append(total << shift if shift >= 0 else total >> -shift)
    return tuple(sums)


def _face_sweep(w: int, rows: int, r: int) -> tuple[tuple[int, ...], ...]:
    """N_0..N_r on the boards of 1, 2, ..., ``rows`` rows of ``w`` cells, one tuple per row count.

    N_j counts the sets of unit faces, in the (w-1)-wide face grid, whose
    boundary in the grid graph has j edges.  Faces are placed row by row;
    the state is the profile of the w-1 most recent faces, bit j being the
    face in column j.  A face placed with value f adds [f != above] +
    [f != left] boundary edges, plus f at the right edge, the face above a
    top face and left of a first face counting as unset; the bottom row
    adds popcount(profile) when it is read off, at the end of every row.
    Each state carries sum z^(edges so far) over the face sets that end in
    it, packed into one integer, ``_count_bits`` bits per count.

    Only what can reach z^r is kept.  Every set face of the profile still
    owes an edge below it, in its own column: popcount(profile) edges at
    least.  The boundary of the faces placed so far is even (the grid is
    bipartite), and its edges not yet counted are those owed below plus, in
    the middle of a row, the right edge of the last face placed if it is
    set.  So within one state every exponent has the parity of
    q = popcount(profile) + that bit, and at least q edges are still owed.
    A word holds only the exponents of that parity, at index exponent // 2,
    and drops those above r - q; a state left with none is dropped.  The
    profiles that survive have at most r/2 set faces: each set face's
    column holds a top and a bottom boundary edge.

    Placing face j maps the two profiles that differ only in bit j, the
    face above, onto the same two profiles, so each such pair is updated at
    once: with l the face to its left and R = [j = w-2], the profile with
    bit j clear takes z^l (c_0 + z c_1) and the one with bit j set
    z^(1-l+R) (z c_0 + c_1), where c_0 and c_1 are the pair's old sums.

    Every count is at most C(A, j) for the S-row board's A slots, so the
    packed counts never carry into each other.
    """
    faces = w - 1
    width = _count_bits(w, rows, r)
    size = width // 8
    half = r // 2 + 1
    # masks[q]: the exponents e <= r - q of the parity of q
    masks = [(1 << (width * ((r - q - (q & 1)) // 2 + 1))) - 1 if q <= r else 0 for q in range(faces + 2)]
    # shifts[R][2 p + l]: in bits, for the exponent parity p of the lower profile
    # and the face l to the left, c_0 -> lower, c_1 -> lower, c_0 -> upper, c_1 -> upper
    shifts = [
        [
            tuple(width * (e >> 1) for e in (p + l, 2 - p + l, p + 2 - l + right, 2 - p - l + right))
            for p in (0, 1)
            for l in (0, 1)
        ]
        for right in (0, 1)
    ]
    counts = [(1,) + (0,) * r]  # one row of cells has no face
    states = {0: 1}
    for i in range(1, rows):
        for j in range(faces):
            bit = 1 << j
            left = bit >> 1
            table = shifts[j == faces - 1]
            step = 2 - (j == faces - 1)
            new = {}
            for s, c in states.items():
                if s & bit:
                    s = s ^ bit
                    if s in states:
                        continue  # updated with its partner
                    c0, c1 = 0, c
                else:
                    c0, c1 = c, states.get(s | bit, 0)
                ones = s.bit_count()
                l = 1 if s & left else 0
                a, b, d, e = table[2 * ((ones + l) & 1) + l]
                lower = ((c0 << a) + (c1 << b)) & masks[ones]
                if lower:
                    new[s] = lower
                upper = ((c0 << d) + (c1 << e)) & masks[ones + step]
                if upper:
                    new[s | bit] = upper
            states = new
        total = sum(c << (width * ((s.bit_count() + 1) >> 1)) for s, c in states.items())
        raw = total.to_bytes(size * half, "little")
        row = [0] * (r + 1)
        row[::2] = [int.from_bytes(raw[size * k : size * (k + 1)], "little") for k in range(half)]
        _check_counts(row, w, i + 1)
        counts.append(tuple(row))
    return tuple(counts)


def _count_bits(w: int, rows: int, r: int) -> int:
    """Bits per count in the packed words of :func:`_face_sweep`: room for every C(A, j), j <= r, in whole bytes."""
    slots = 2 * w * rows - w - rows
    # C(A, j) grows with j up to A // 2
    return -(-(math.comb(slots, min(r, slots // 2)).bit_length() + 1) // 8) * 8


def _check_counts(counts, w: int, rows: int) -> None:
    """Raise ConsistencyError unless the perimeter counts of a board of ``rows`` rows of ``w`` cells hold two facts.

    No boundary has an odd number of edges (the grid is bipartite), and the
    sets of perimeter 4 are the (w-1)(rows-1) unit squares.
    """
    if any(counts[1::2]):
        raise ConsistencyError(f"width {w}, {rows} rows: a face set has an odd perimeter")
    if len(counts) > 4 and counts[4] != (w - 1) * (rows - 1):
        raise ConsistencyError(
            f"width {w}, {rows} rows: {counts[4]} face sets of perimeter 4, "
            f"not the {(w - 1) * (rows - 1)} unit squares"
        )


def mgf_deviation_1n(n: int, t_values, dps: int = 50):
    """max |cosh(t/(2 sigma))^(n-1) - e^{t^2/2}| with sigma^2 = (n-1)/4, by ``common.mgf_deviation``.

    Raises SizeGuardError beyond MGF_GUARD.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return common.mgf_deviation(Fraction(n - 1, 4), 0, lambda: lambda u: mpmath.cosh(u) ** (n - 1), t_values, dps)


def _mgf(p: dict, t_values, dps: int):
    """The MGF deviation of a 1-by-n board; no other board has an MGF route."""
    if p["m"] != 1:
        raise ValueError("the domino MGF route serves only 1-by-n boards (m = 1)")
    return mgf_deviation_1n(p["n"], t_values, dps)


def _check(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")


def _closed_forms(kind: str, r_max: int, p: dict) -> list[Polynomial] | None:
    """The mu-polynomials of raw and central moments, only where every order is exact."""
    if kind == "binomial" or not in_closed_form_domain(p["m"], p["n"], r_max):
        return None
    return half_binomial_moments(2 * Polynomial.variable("mu"), r_max, kind == "central")


def _closed_pgf(p: dict) -> Polynomial | None:
    """((1+q)/2)^(n-1) on a 1-by-n board: the binomial row C(n-1, d) over 2^(n-1)."""
    _check(p["m"], p["n"])
    return half_binomial_pgf(p["n"] - 1) if p["m"] == 1 else None


FAMILY = Family(
    name="domino",
    params=("m", "n"),
    defaults={"m": 1},
    space_size=lambda p: 1 << (p["m"] * p["n"]),
    space_bits=lambda p: p["m"] * p["n"] + 1,
    max_order=lambda p: None,
    moments=_moments,
    mean=lambda p: mean(p["m"], p["n"]),
    closed_pgf=_closed_pgf,
    enumerate=lambda p: (oracle.enumerate_boards(p["m"], p["n"]), {}),
    closed_forms=_closed_forms,
    mgf=_mgf,
)
