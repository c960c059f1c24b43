"""Same-number domino counts on random 0/1 boards.

With A = 2mn - m - n domino slots and mu = A/2, treating the slots as
independent fair coins makes X ~ Binomial(2 mu, 1/2), whose moments are
polynomials in mu alone (the shared Binomial(N, 1/2) forms at N = 2 mu,
``common.half_binomial_moments``).  That is exact only for r <= 3 or on a
1-by-n (m-by-1) board, where the slots form a forest.  On a board with
m, n >= 2 the four slots around a lattice square are all same-number with
probability 1/2^3, not 1/2^4, so from r = 4 on the moments depend on the
board and not on mu alone (2x2 at r = 4: the mu-form gives 85/2, the true
value is 44).  The mu-polynomials are kept only as the printed closed
forms on that domain.

Every board's numbers, that domain's included, come from one route: only
unions of cycles of at most r slots move E[X^r] away from the independent
case, each the boundary of one set of unit faces: with N_j the face sets
of perimeter j, which a sparse face sweep counts row by row, and F(u) =
sum_j N_j u^j, E[(1+t)^X] = (1 + t/2)^A F(t/(2+t)) (MacWilliams'
identity, at ``binomial_sums``).  On a forest board every N_j, j >= 1, is
0 and the route gives Binomial(A, 1/2) itself.

Larger boards need no larger sweep: with w = min(m, n), L = max(m, n) and
b = max(1, floor(r/2) - 1), each cumulant kappa_k, k <= r, is affine in L
for L >= b and in w for w >= b.  Sketch (the overlapping-stage approach):
X sums the slot indicators [x_u = x_v], affine forms over GF(2) in iid
fair cells; slot sets that no cycle of the tuple's slots joins are
independent, and a joint cumulant of two independent families vanishes
(Leonov and Shiryaev 1959; Janson 1988).  So only a repeated slot, or
distinct slots forming one 2-connected block, contribute; a block over
H + 1 rows and H' + 1 columns holds a cycle of at least 2H + 2 <= r slots,
so H <= b, and has (L - H)(w - H') translates, each of the same cumulant.
By the identity, log F(u) to order r is a fixed linear image of
kappa_1..kappa_r less A log(1 + t/2), t = 2u/(1-u), and A is affine in
each side: so are the coefficients of log F(u), each an integer over its
order (N_0 = 1).  A board past b + 2 rows extrapolates them from boards of
b and b + 1 rows and columns (:func:`_counts`).

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
    """The board's raw moments from E[C(X, k)] = s_k / 2^k (:func:`binomial_sums`).

    Charged to TRANSFER_GUARD before any sweep runs, on every board.
    """
    m, n = p["m"], p["n"]
    _check(m, n)
    if r_max < 0:
        raise ValueError("need r >= 0")
    bits = slot_count(m, n).bit_length() + 1
    charge(
        r_max * r_max * (r_max * bits // 128 + 8), TRANSFER_GUARD, "TRANSFER_GUARD",
        f"the moments of the {m}x{n} board to order {r_max} need work r^2 (r (bits(A) + 1)/128 + 8) = "
        f"{r_max}^2*({r_max}*{bits}//128 + 8)",
    )
    binomial = [Fraction(s_k, 1 << k) for k, s_k in enumerate(binomial_sums(m, n, r_max))]
    return binomial_to_raw(MomentVector("binomial", binomial))


def _counts(w: int, length: int, r: int) -> list[int]:
    """N_0..N_r of the w-by-``length`` board, w <= length: its own sweep's last row up to b + 2 rows, else extrapolated.

    Past b + 2 rows the d_j of log F (:func:`_logs`) are affine in the
    length from rows b and b + 1 of width w, or, past width b + 2, of widths
    b and b + 1 and then in the width.  The check board, the widest, is read
    first, so that its sweep's charge refuses before any sweep runs.
    """
    first = max(1, r // 2 - 1)  # b: from b rows and columns on, log F to order r is affine in each side
    top = first + 2
    if length <= top:
        return _sweep(w, length, r)[length - 1]

    def logs(width, rows):
        return _logs(_sweep(width, top, r)[rows - 1])

    def along(low, high, steps):
        return [a + steps * (c - a) for a, c in zip(low, high)]

    def from_rows(width, rows):
        return along(logs(width, first), logs(width, first + 1), rows - first)

    def from_widths(width, rows):
        return along(from_rows(first, rows), from_rows(first + 1, rows), width - first)

    extrapolate = from_rows if w <= top else from_widths
    check = min(w, top)
    for j, (got, want) in enumerate(zip(logs(check, top), extrapolate(check, top))):
        if got != want:
            raise ConsistencyError(f"r = {r}: d_{j} of the {check}x{top} board is {got}, "
                                   f"not the {want} extrapolated from {first} and {first + 1} rows")
    counts = _exps(extrapolate(w, length), w, length)
    _check_counts(counts, w, length)
    return counts


def _logs(counts) -> list[int]:
    """d_0..d_r, d_j = j [u^j] log F(u), integers by u F' = F sum_j d_j u^j: d_j = j N_j - sum_{0<i<j} d_i N_{j-i}."""
    d = [0] * len(counts)
    for j in range(1, len(counts)):
        d[j] = j * counts[j] - sum(d[i] * counts[j - i] for i in range(1, j))
    return d


def _exps(d: list[int], w: int, length: int) -> list[int]:
    """N_0..N_r from d_0..d_r, the inverse of :func:`_logs`: j N_j = sum_{0<i<=j} d_i N_{j-i}, exactly."""
    counts = [1] + [0] * (len(d) - 1)
    for j in range(1, len(d)):
        counts[j], rest = divmod(sum(d[i] * counts[j - i] for i in range(1, j + 1)), j)
        if rest:
            raise ConsistencyError(f"width {w}, {length} rows: the extrapolated {j} N_{j} is not a multiple of {j}")
    return counts


# Bound on the work of the moment route of every board, in units of about
# 0.02 us in process on one Intel Xeon core (a budget of about 2 s), on two
# terms, each charged before its work runs:
# - F P (limbs + 32), one face sweep (:func:`_face_sweep`) of w cells a row:
#   F faces, each updating at most P pairs of profiles (P the ways to set at
#   most r/2 of the w-2 faces outside the pair, far above the profiles that
#   survive where r/2 < w-2), on packed words of ``limbs`` 64-bit limbs.  A
#   pair update costs about 0.6 us plus 0.02 us a limb, so the fixed cost is
#   worth 32 limbs.  No sweep of the route is wider than its board or longer
#   than min(L, b + 2) rows.
# - r^2 (r (bits(A) + 1) / 128 + 8), the board's sums s_k and its moments of
#   orders <= r in any kind (:func:`_moments`, then ``moment_vector``): each
#   takes r^2/2 steps on numbers of about r (bits(A) + 1) bits.  Sums,
#   raw, central and binomial moments together took 14 to 27 ns a unit from
#   r = 200 on (0.8 s for 2 x 369 at r = 734, 0.06 s for 2 x 10^9 at r = 200).
TRANSFER_GUARD = 10**8

# N_0..N_r per row count of each face sweep run, by (w, rows, r)
_SWEEPS: dict[tuple[int, int, int], tuple[tuple[int, ...], ...]] = {}


def binomial_sums(m: int, n: int, r: int) -> tuple[int, ...]:
    """s_k = 2^k E[C(X, k)] = b_k / 2^{mn-k}, k <= r, b_k summing C(X, k) over the boards of n rows of m cells.

    The slots are the edges of the m-by-n grid graph.  A board's
    disagreeing slots form a uniform element of the graph's cut space, whose
    dual code is the cycle space; a cycle of the planar grid is the boundary
    of exactly one set of unit faces.  So, summing 2^(components) over the
    k-sets of slots that agree (MacWilliams 1963, at x = 1+z, y = 1),

        s_k = sum_{j<=k} N_j C(A-j, k-j),

    with N_j the number of face sets whose perimeter, their boundary in the
    grid graph, has j edges (:func:`_counts`): 0 for odd j (the grid is
    bipartite), and N_4 counts the unit squares.
    """
    _check(m, n)
    if r < 0:
        raise ValueError("need r >= 0")
    w, length = min(m, n), max(m, n)
    return _sums_from_counts(_counts(w, length, r), w, length)


def _sweep(w: int, rows: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The face sweep of ``rows`` rows of ``w`` cells at order r (:func:`_face_sweep`), run once, charged first."""
    if (w, rows, r) not in _SWEEPS:
        faces = (w - 1) * (rows - 1)
        # a byte a count at least: a large r or board is refused on this bound, before any binomial
        pairs, limbs = 1, -(-(r // 2 + 1) // 8)
        if faces * (limbs + 32) <= TRANSFER_GUARD:
            pairs = sum(math.comb(w - 2, i) for i in range(min(w - 2, r // 2) + 1))
            limbs = -(-_count_bits(w, rows, r) * (r // 2 + 1) // 64)
        charge(
            faces * pairs * (limbs + 32), TRANSFER_GUARD, "TRANSFER_GUARD",
            f"face sweep of {rows} rows of {w} cells at r = {r} needs work F*P*(limbs + 32) = "
            f"{faces}*{pairs}*{limbs + 32}",
        )
        _SWEEPS[w, rows, r] = _face_sweep(w, rows, r)
    return _SWEEPS[w, rows, r]


def _sums_from_counts(counts, w: int, length: int) -> tuple[int, ...]:
    """s_k = sum_j N_j C(A-j, k-j), k <= r, from the perimeter counts N_0..N_r of a w-by-L board.

    2^{wL-k} s_k counts boards, so 2^(k-wL) divides s_k for k > wL.
    """
    slots, r = 2 * w * length - w - length, len(counts) - 1
    sums = [0] * (r + 1)
    for j, term in enumerate(counts[: slots + 1]):  # a perimeter is a set of slots: N_j = 0 for j > A
        for k in range(j, r + 1):  # term = N_j C(A-j, k-j), and C(A-j, i+1) = C(A-j, i) (A-j-i) / (i+1)
            sums[k] += term
            term = term * (slots - k) // (k - j + 1)
    for k in range(w * length + 1, r + 1):
        if sums[k] & ((1 << (k - w * length)) - 1):
            raise ConsistencyError(
                f"width {w}, {length} rows: the sum of C(X, {k}) over the boards is not an integer"
            )
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
