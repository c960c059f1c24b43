"""Same-number domino counts on random 0/1 boards.

With A = 2mn - m - n domino slots and mu = A/2, treating the slots as
independent fair coins makes X ~ Binomial(2 mu, 1/2), whose moments are
polynomials in mu alone (the shared cumulant route,
``common.half_binomial_moments``).  That is exact only for r <= 3 or on a
1-by-n (m-by-1) board, where the slots form a forest.  On a board with
m, n >= 2 the four slots around a lattice square are all same-number with
probability 1/2^3, not 1/2^4, so from r = 4 on the moments depend on the
board and not on mu alone (2x2 at r = 4: the mu-form gives 85/2, the true
value is 44).  The mu-polynomials are kept as the printed closed forms on
that domain, where the numeric moments are those of Binomial(A, 1/2);
everywhere else the moments come from an integer broken-profile transfer
matrix (Stanley, EC1 section 4.7) across the shorter side w = min(m, n).
It runs at most 2r+2 rows: for a length L = max(m, n) past that, each
2^k E[C(X, k)] is a polynomial of degree <= k in L, exact for L >= k+1
(proof at ``binomial_sums``), fitted on rows r+1..2r+2 with an exact check
and evaluated at L.  The longest sweep run per (w, r) thus serves every
board of that width, and a longer board costs only the arithmetic on its
sums b_k, integers of about wL bits.

The 1-by-n board is Binomial(n - 1, 1/2): its PGF is the binomial row
over 2^(n-1), and its MGF deviation reads cosh(t/(2 sigma))^(n-1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

from momentforge import oracle
from momentforge.errors import ConsistencyError, SizeGuardError
from momentforge.families import common
from momentforge.families.common import (
    Family,
    binomial_row,
    count_pgf,
    half_binomial_moments,
    pgf_total,
)
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


@lru_cache(maxsize=None)
def raw_moments_symbolic(r_max: int) -> MomentVector:
    """E[X^r], r <= r_max, as polynomials in mu: the moments of Binomial(2 mu, 1/2)."""
    entries = half_binomial_moments(2 * Polynomial.variable("mu"), r_max, central=False)
    return MomentVector("raw", entries)


def in_closed_form_domain(m: int, n: int, r: int) -> bool:
    """True where the mu-polynomials of orders <= r are exact: r <= 3 or min(m, n) = 1."""
    return r <= 3 or min(m, n) == 1


def _moments(r_max: int, p: dict) -> MomentVector:
    """Central moments of Binomial(A, 1/2) on the domain of the mu-polynomials, else raw ones.

    The raw ones come from the transfer matrix's E[C(X, k)] = b_k / 2^{mn} (:func:`binomial_sums`).
    """
    m, n = p["m"], p["n"]
    _check(m, n)
    if r_max < 0:
        raise ValueError("need r >= 0")
    if in_closed_form_domain(m, n, r_max):
        return MomentVector("central", half_binomial_moments(slot_count(m, n), r_max, central=True))
    b = binomial_sums(m, n, r_max)
    total = 2 ** (m * n)
    return binomial_to_raw(MomentVector("binomial", [Fraction(b_k, total) for b_k in b]))


@lru_cache(maxsize=None)
def central_moments_symbolic(r_max: int) -> MomentVector:
    """E[(X-mu)^r] as polynomials in mu; all odd entries vanish.

    Exact only on the domain of :func:`in_closed_form_domain`.
    """
    entries = half_binomial_moments(2 * Polynomial.variable("mu"), r_max, central=True)
    return MomentVector("central", entries)


# Bound on max(w S 2^(w-2) (limbs + 16), w max(L, S^2/2) r) for
# w = min(m, n), L = max(m, n) and S = min(L, 2r+2).  The first term is the
# work of one sweep: about w S 2^(w-2) pair updates, each on packed words
# of (r+1) coefficients of ``_width`` bits, ``limbs`` 64-bit limbs long.  In
# process on one Intel Xeon core a state costs about 0.15 us plus 0.009 us
# a limb, so the fixed cost is worth 16 limbs.  The second is the size of
# the sums: the r+1 sums b_k of the board, integers of about wL bits each,
# and those the sweep keeps for each of its S rows.  The last order served
# at each width, one sweep of 2r+2 rows (w = 2 at r = 291 up to w = 16 at
# r = 6), takes 2.2 to 3.1 s as a whole process; 4 x 1000 at r = 400, whose
# words are about 15000 limbs long, would take about 15 s.  A length at the
# guard, 8 x 1562500 at r = 8 or 2 x 12500000 at r = 4, takes 0.35 to 0.5 s
# and 44 to 53 MB.
TRANSFER_GUARD = 10**8

# b_0..b_r per row from the longest sweep run so far, per (w, r); a sweep's
# rows do not depend on where it stops, so it serves every shorter board.
_SWEPT: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def binomial_sums(m: int, n: int, r: int) -> tuple[int, ...]:
    """b_k = sum over all 2^{mn} boards of C(X, k), for k = 0..r.

    Let w = min(m, n) be the width, L = max(m, n) the length and
    S = min(L, 2r+2).  A transfer sweep of width w runs S rows and records
    b_0..b_r at the end of every row (:func:`_sweep`); the longest sweep
    run per (w, r) is kept and read by every later request of at most as
    many rows.  For L <= S the answer is row L.  Longer boards are served
    by a polynomial in L, exact for L >= k+1 at order k:

    2^k E_k(L) = 2^k b_k / 2^{wL} is an integer (see :func:`_sweep`) and a
    polynomial of degree <= k in L for L >= k+1.  Proof: with T(z) the
    row-to-row matrix, T[s, t] = (1+z)^(same-number pairs between rows s and
    t and inside t), v[s] = (1+z)^(pairs inside s) and u all ones, the
    generating sum is v T(z)^{L-1} u.  At z = 0, T(0) = J is the all-ones
    matrix, so T = J + D with D = O(z), and [z^k] of the product is a sum
    over words in J and D with j <= k letters D.  A run of a >= 1 letters J
    is 2^{w(a-1)} J, so after the division by 2^{wL} a word depends only on
    which of its j+1 gaps between D letters are nonempty, say g of them, and
    the number of words with that pattern is the number of ways to split
    the N = L-1-j letters J into g nonempty runs, C(N-1, g-1): a polynomial
    in L of degree g-1 <= j for N >= 1 (zero for g = 0).  At N = 0 only the
    pattern with every gap empty occurs, once, while the polynomials give it
    0 and each pattern with g >= 1 the weight C(-1, g-1) = (-1)^(g-1).  The
    two agree, because the sum of (-1)^g times the words over all patterns
    replaces every gap by I - J/2^w, which sends u to 0.  So the sum is a
    polynomial in L whenever N >= 0 for every j <= k, that is for L >= k+1.

    The polynomial is fitted from the integer forward differences of
    2^k E_k at L = r+1..2r+2, r+2 points: every difference above order k
    must vanish, else ConsistencyError, so the point past the r+1 that fix
    a polynomial of degree <= r is a check.  It is evaluated in Newton
    form, sum_j Delta^j C(L-r-1, j), in integers until the one final shift
    by wL - k.

    Raises SizeGuardError when w*max(L, S^2/2)*r or w*S*2^(w-2)*(limbs + 16)
    exceeds TRANSFER_GUARD, with ``limbs`` the 64-bit length of a packed word.
    The first is checked first: it needs no binomial, so a large r or board
    is refused after O(1) arithmetic.
    """
    _check(m, n)
    if r < 0:
        raise ValueError("need r >= 0")
    w, length = min(m, n), max(m, n)
    rows = min(length, 2 * r + 2)
    size = w * max(length, rows * rows // 2) * r
    if size > TRANSFER_GUARD:
        raise SizeGuardError(
            f"transfer matrix for the {m}x{n} board at r = {r} keeps sums of size "
            f"w*max(L, S^2/2)*r = {w}*{max(length, rows * rows // 2)}*{r} = {size}, "
            f"beyond the TRANSFER_GUARD = {TRANSFER_GUARD} size guard"
        )
    # only now is w*S^2*r small enough for the binomial inside _width to be cheap
    limbs = -(-_width(w, rows, r) * (r + 1) // 64)
    work = (w * rows << w >> 2) * (limbs + 16)
    if work > TRANSFER_GUARD:
        raise SizeGuardError(
            f"transfer matrix for the {m}x{n} board at r = {r} needs a sweep of "
            f"w*S*2^(w-2)*(limbs + 16) = {w}*{rows}*2^{w - 2}*{limbs + 16} = {work}, "
            f"beyond the TRANSFER_GUARD = {TRANSFER_GUARD} size guard"
        )
    sweep = _SWEPT.get((w, r), ())
    if len(sweep) < rows:
        sweep = _SWEPT[w, r] = _sweep(w, rows, r)
    if length <= rows:
        return sweep[length - 1]
    return tuple(_extend(sweep, w, k, r, length) for k in range(r + 1))


def _extend(sweep: tuple[tuple[int, ...], ...], w: int, k: int, r: int, length: int) -> int:
    """b_k at ``length`` > 2r+2 rows from the polynomial in the length fitted to ``sweep``."""
    scaled = []  # 2^k E_k(L) for L = r+1..2r+2
    for rows in range(r + 1, 2 * r + 3):
        value = sweep[rows - 1][k] << k
        if value & ((1 << (w * rows)) - 1):
            raise ConsistencyError(
                f"width {w}, {rows} rows: 2^{k} E[C(X, {k})] is not an integer"
            )
        scaled.append(value >> (w * rows))
    differences = []  # Delta^j at L = r+1, j = 0..r+1
    column = scaled
    while column:
        differences.append(column[0])
        column = [b - a for a, b in zip(column, column[1:])]
    if any(differences[k + 1 :]):
        raise ConsistencyError(
            f"width {w} at r = {r}: 2^{k} E[C(X, {k})] on rows {r + 1}..{2 * r + 2} "
            f"is not a polynomial of degree <= {k} in the number of rows"
        )
    steps = length - r - 1
    return sum(d * math.comb(steps, j) for j, d in enumerate(differences)) << (w * length - k)


def _sweep(w: int, rows: int, r: int) -> tuple[tuple[int, ...], ...]:
    """b_0..b_r on the boards of 1, 2, ..., ``rows`` rows of ``w`` cells, one tuple per row count.

    A broken-profile transfer matrix: cells are placed row by row; the state
    is the w most recent cells, bit j being the cell in column j.  Each
    state carries sum C(X, k) z^k over the partial boards that end in it,
    truncated at z^r and packed into one integer, `width` bits per
    coefficient.  A new cell multiplies by (1+z) once per same-number
    neighbour to its left or above.  The sums are read off at the end of
    every row.

    Complementing every cell preserves X, so only states with bit w-1 clear
    are stored, each standing for itself and its complement, and cell
    (0, 0) is fixed to 0.  Row 0 has no cell above and builds its at most
    2^(w-1) states one left neighbour at a time (:func:`_first_row`).  From
    row 1 on the states are a list indexed by state, updated in place:
    placing cell (i, j) replaces bit j, the cell above, so the two states
    that differ only in it map onto the same two new states.  In each such
    pair, p is the one whose bit j equals bit j-1, the cell to the left,
    and q the other; with mul(c) = c(1+z) truncated at z^r, the step is
    p <- mul(mul(c_p) + c_q), q <- c_p + mul(c_q).  At j = 0, with no cell
    to the left, it is p <- mul(c_p) + c_q, q <- c_p + mul(c_q).  At
    j = w-1 the partner of a stored state a is a ^ (full ^ top), the stored
    complement of a | top; at w = 1 that is a itself.  The pairs of each
    column are listed once per call.

    Once c cells are placed, each state stands for 2^{c-w} partial boards,
    over which E[C(X, k)] has a denominator dividing 2^k (k slots tie at
    most k cells to the rest), so every coefficient is divisible by
    2^{c-w-r}.  That power of 2 is shifted out in the same pass as it
    accrues, one bit per cell: the new values are OR-ed into one word,
    which must have no coefficient's lowest bit set (ConsistencyError
    otherwise), and stored halved.  The integers stay near r*log2(A) bits
    instead of growing with the number of cells.
    """
    width = _width(w, rows, r)
    mask = (1 << (width * (r + 1))) - 1
    low_bits = sum(1 << (width * k) for k in range(r + 1))
    coefficient = (1 << width) - 1
    full = (1 << w) - 1
    top = 1 << (w - 1)
    values = _first_row(w, width, mask)
    total = 2 * sum(values)
    sums = [tuple((total >> (width * k)) & coefficient for k in range(r + 1))]
    # one int object per state, shared by the pair lists of every column
    index = list(range(top))
    columns = []
    for j in range(w):
        partner = full ^ top if j == w - 1 else 1 << j
        ps = [a for a in index if a <= a ^ partner]
        if j:
            ps = [a if (a >> j) & 1 == (a >> (j - 1)) & 1 else index[a ^ partner] for a in ps]
        columns.append((ps, [index[a ^ partner] for a in ps]))
    shifted = 0
    for i in range(1, rows):
        for j, (ps, qs) in enumerate(columns):
            shift = int(i * w + j + 1 - w - r > shifted)
            shifted += shift
            seen = 0
            if j:
                for p, q in zip(ps, qs):
                    cp = values[p]
                    cq = values[q]
                    both = cp + cq
                    t = both + (cp << width)
                    x = (t + (t << width)) & mask
                    y = (both + (cq << width)) & mask
                    seen |= x | y
                    values[p] = x >> shift
                    values[q] = y >> shift
            else:
                for p, q in zip(ps, qs):
                    cp = values[p]
                    cq = values[q]
                    both = cp + cq
                    x = (both + (cp << width)) & mask
                    y = (both + (cq << width)) & mask
                    seen |= x | y
                    values[p] = x >> shift
                    values[q] = y >> shift
            if shift:
                _check_halvable(seen, low_bits, w, i, j)
        total = 2 * sum(values)
        sums.append(tuple(((total >> (width * k)) & coefficient) << shifted for k in range(r + 1)))
    return tuple(sums)


def _width(w: int, rows: int, r: int) -> int:
    """Bits per coefficient in the packed words of :func:`_sweep`: room for every C(slots, k), k <= r."""
    slots = 2 * w * rows - w - rows
    # C(slots, k) grows with k up to slots // 2
    return w + r + 2 + math.comb(slots, min(r, slots // 2)).bit_length()


def _first_row(w: int, width: int, mask: int) -> list[int]:
    """The packed sums of :func:`_sweep` after row 0, a list indexed by the stored states.

    Row 0 has no cell above: each cell after (0, 0) doubles the states it
    reaches, at most 2^(w-1), by its left neighbour alone.
    """
    full = (1 << w) - 1
    top = 1 << (w - 1)
    states = {0: 1}
    for j in range(1, w):
        bit = 1 << j
        new: dict[int, int] = {}
        for s, c in states.items():
            s1 = s | bit
            if s1 & top:
                s1 ^= full
            c1 = (c + (c << width)) & mask
            d0, d1 = (c1, c) if (s >> (j - 1)) & 1 == 0 else (c, c1)
            new[s] = new.get(s, 0) + d0
            new[s1] = new.get(s1, 0) + d1
        states = new
    return [states.get(s, 0) for s in range(top)]


def _check_halvable(word: int, low_bits: int, w: int, row: int, column: int) -> None:
    """Raise ConsistencyError if ``word``, the OR of a cell's new values, has a coefficient's lowest bit set."""
    if word & low_bits:
        raise ConsistencyError(
            f"width {w}, row {row}, cell {column}: a coefficient is not divisible "
            f"by the accrued power of 2"
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
    sym = (raw_moments_symbolic if kind == "raw" else central_moments_symbolic)(r_max)
    return list(sym.entries)


def _closed_pgf(p: dict) -> Polynomial | None:
    """((1+q)/2)^(n-1) on a 1-by-n board: the binomial row C(n-1, d) over 2^(n-1)."""
    if p["m"] != 1:
        return None
    N = max(p["n"] - 1, 0)
    total = pgf_total(N, lambda: 1 << N)
    return count_pgf(binomial_row(N), total)


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
