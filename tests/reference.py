"""Independent references the tests compare momentforge against.

None of these is on a route the program serves: each computes a quantity
by another method (a recurrence, a direct count, a series expansion, a
divided-difference table or an extrapolation), and the first line of each
docstring names the acceptance criterion or oracle check that pins it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from momentforge.errors import FitVerificationError
from momentforge.exact_core import binomial, falling_factorial, stirling1_signed, stirling2
from momentforge.families import boolean
from momentforge.families.common import binomial_row, half_binomial_moments
from momentforge.fitter import FitSpec
from momentforge.moment_algebra import MomentVector, raw_to_binomial
from momentforge.oracle import Histogram, JointHistogram
from momentforge.poly_series import Polynomial, QuasiPolynomial, TruncatedSeries

# -- permutations: inversions and the major index ----------------------------


def p_coefficient(i: int) -> Polynomial:
    """Criterion 4: p_i(n), the coefficient of z^i in P(n, z), the step of the paper's B_r(n) recurrence.

    p_i(n) = (1/n) sum_s (-1)^s C((n-3)/2 + s, s) C(n, i+1-s), exactly, as a
    polynomial in n.
    """
    if i < 0:
        raise ValueError("need i >= 0")
    nn = Polynomial.variable("n")
    acc = Polynomial("n", ())
    for s in range(i + 1):
        upper = falling_factorial((nn - 3) / 2 + s, s) * Fraction(1, math.factorial(s))
        j = i + 1 - s
        lower = falling_factorial(nn, j) * Fraction(1, math.factorial(j))
        acc = acc + (upper * lower if s % 2 == 0 else -(upper * lower))
    assert not acc.coefficient(0), "the sum is divisible by n"
    return Polynomial("n", acc.coeffs[1:])


def maj_rows(n: int) -> list[list[int]]:
    """Criterion 3: [F(n,1), ..., F(n,n)], the maj generating functions by final entry, as integer rows.

    F(n,i) = sum_{j<i} F(n-1,j) + q^{n-1} sum_{j>=i} F(n-1,j), F(1,1) = 1,
    from prefix and suffix sums of the rows.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rows = [[1]]
    for m in range(2, n + 1):
        prefix = [[]]  # prefix[i] = sum of the first i rows
        for f in rows:
            prefix.append(_add_rows(prefix[-1], f))
        suffix = [[]]  # suffix[i] = sum of the last i rows
        for f in reversed(rows):
            suffix.append(_add_rows(suffix[-1], f))
        shift = [0] * (m - 1)
        rows = [_add_rows(prefix[i], shift + suffix[m - 1 - i]) for i in range(m)]
    return rows


def _add_rows(a: list[int], b: list[int]) -> list[int]:
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def maj_pgf(n: int) -> Polynomial:
    """Criterion 3: the PGF of maj over S_n, H_n(q) = F(n+1, n+1) over n!."""
    return Polynomial("q", maj_rows(n + 1)[-1], math.factorial(n))


def marginal_maj(joint: JointHistogram) -> Histogram:
    """Criterion 3: the maj marginal of the oracle's joint (inv, maj) histogram."""
    counts: dict[int, int] = {}
    for (_, maj), c in joint.counts.items():
        counts[maj] = counts.get(maj, 0) + c
    return Histogram(counts, joint.total)


def permutation_inv(perm: Sequence[int]) -> int:
    """Oracle check behind criterion 3: the number of pairs appearing out of order."""
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])


def permutation_maj(perm: Sequence[int]) -> int:
    """Oracle check behind criterion 3: the sum of the descent positions (1-based)."""
    return sum(i + 1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1])


# -- Schur triples ------------------------------------------------------------


def triples(n: int) -> list[tuple[int, ...]]:
    """Criterion 1: every Schur triple {x, y, x+y} in [1, n] as its elements, (x, 2x) when x = y."""
    return [
        (x, 2 * x) if x == y else (x, y, x + y) for x in range(1, n + 1) for y in range(x, n - x + 1)
    ]


def indicator_first_moment(n: int, c: int) -> Fraction:
    """Criterion 1: E[X] summed triple by triple, 1/c per two-element triple and 1/c^2 per three."""
    return sum((Fraction(1, c ** (len(t) - 1)) for t in triples(n)), Fraction(0))


def first_moment_quasi(c: int) -> QuasiPolynomial:
    """Criterion 1: E[X] as the printed period-2 quasi-polynomial in n at a numeric c."""
    nn = Polynomial.variable("n")
    odd = (nn - 1) * (nn - 1 + 2 * c) / (4 * c * c)
    even = nn * (nn - 2 + 2 * c) / (4 * c * c)
    return QuasiPolynomial(2, [even, odd])


def schur_second_moments(top: int, c: int) -> list[Fraction]:
    """Check of ``schur.second_moment``: E[X^2] at n = 0..top by walking every intersecting pair.

    Step n adds the triples whose largest element is n, {x, n-x, n} and
    {n/2, n}, and pairs each new triple T with every triple U already
    present: the ones sharing an element are found through per-element
    buckets and weigh c^(1-p) with p = |T union U|, the others c^(2-|T|-|U|).
    O(top^3) pair visits; every term is kept as an integer over c^4.
    """
    masks: list[int] = []
    sizes: list[int] = []
    present = {2: 0, 3: 0}
    by_elem: list[list[int]] = [[] for _ in range(top + 1)]
    total = 0  # c^4 E[X^2]
    values = [Fraction(0)]
    for n in range(1, top + 1):
        new = [(x, n - x, n) for x in range(1, (n + 1) // 2)]
        if n % 2 == 0:
            new.append((n // 2, n))
        for elements in new:
            mask = sum(1 << e for e in elements)
            st = len(elements)
            met = {u for e in elements for u in by_elem[e]}
            apart = dict(present)
            for u in met:
                total += 2 * c ** (5 - (mask | masks[u]).bit_count())
                apart[sizes[u]] -= 1
            total += c ** (5 - st) + sum(2 * k * c ** (6 - st - su) for su, k in apart.items())
            for e in elements:
                by_elem[e].append(len(masks))
            masks.append(mask)
            sizes.append(st)
            present[st] += 1
        values.append(Fraction(total, c**4))
    return values


def schur_swept_second_moments(top: int, c: int) -> list[Fraction]:
    """Check of ``schur.second_moment``: E[X^2] at n = 0..top from the step counts of ``schur_sweep``.

    The pair counts sit at indices s*8 + p of ``schur_read_off``'s multi:
    35, 43, 44, 52 and 53 are the five a step changes.
    """
    values = []
    for n, (k3, *pairs) in enumerate(schur_sweep(top)):
        multi = [0] * 64
        for key, count in zip((35, 43, 44, 52, 53), pairs):
            multi[key] = count
        values.append(schur_read_off(n // 2, k3, multi, c))
    return values


def schur_sweep(top: int) -> list[tuple[int, ...]]:
    """The c-free counts (k3, multi[35], multi[43], multi[44], multi[52], multi[53]) at n = 0..top.

    O(1) arithmetic per n, with no triple visited.

    Two triples S and U with p = |S union U| add s - p to multi[s*8 + p],
    s = |S| + |U|: a walk over per-element buckets meets a pair once per
    shared element, and these are its visits, counted.  Step n adds
    the m = floor((n-1)/2) triples {x, n-x, n}, then {h, n} if n = 2h.
    At its start, k2 = m and k3 count the present triples of two and three
    elements, all inside [1, n-1]; none contains n.

    * Visits of the new three-element triples.  Their elements x and n-x
      cover [1, n-1] minus {h} once, and each earlier new triple of the
      step shares n alone, so they meet three-element triples
      v3 = 3 k3 - c3(h) [n even] + m(m-1)/2 times and two-element ones
      v2 = 2 k2 - c2(h) [n even] times.
    * Present triples through h = n/2: c3(h) = (ceil(h/2) - 1) + (h - 1)
      (h = a + b with a < b, or {b, h, b + h} with b < h) and
      c2(h) = [h even] ({h/2, h}; {h, n} is not present yet).
    * A present triple shares two elements with {x, n-x, n} only through
      {x, n-x}: {x, 2x} when n = 3x, {n-2x, x, n-x} otherwise.  So
      d2 = [3 | n] and d3 = m - d2 pairs share two elements and are
      visited twice; every other visit shares one.
    * {h, n} meets the m new triples through n and the c3(h) + c2(h)
      present ones through h, each sharing one element.

    So multi[44] (a two- and a three-element triple sharing one element)
    gains v2 - 2 d2, multi[43] gains 2 d2, multi[53] v3 - 2 d3 and
    multi[52] 2 d3; then {h, n} adds c2(h) to multi[35] and c3(h) + m to
    multi[44].
    """
    k3 = m35 = m43 = m44 = m52 = m53 = 0
    counts = [(0, 0, 0, 0, 0, 0)]
    for n in range(1, top + 1):
        m = (n - 1) // 2
        h, odd = divmod(n, 2)
        c3h = 0 if odd else (h + 1) // 2 + h - 2
        c2h = 0 if odd else 1 - h % 2
        d2 = 0 if n % 3 else 1
        d3 = m - d2
        m44 += 2 * m - c2h - 2 * d2  # k2 = m
        m43 += 2 * d2
        m53 += 3 * k3 - c3h + m * (m - 1) // 2 - 2 * d3
        m52 += 2 * d3
        k3 += m
        if not odd:
            m35 += c2h
            m44 += c3h + m
        counts.append((k3, m35, m43, m44, m52, m53))
    return counts


def schur_read_off(k2: int, k3: int, multi: list[int], c: int) -> Fraction:
    """E[X^2] from k2 triples {x, 2x}, k3 of three elements and the pair counts.

    Over ordered pairs S, T: the diagonal gives E[X], S != T gives
    c^(2-s) as if disjoint, and an intersecting pair adds c^(1-p) - c^(2-s).
    Every term is an integer over c^4.
    """
    a = k2 * c + k3  # c^2 E[X]
    total = a * c * c + a * a - (k2 * c * c + k3)
    for s in range(4, 7):
        for p in range(2, s):
            total += 2 * (multi[s * 8 + p] // (s - p)) * (c ** (5 - p) - c ** (6 - s))
    return Fraction(total, c**4)


def schur_counts(n: int, c: int) -> tuple[dict[int, int], int]:
    """Oracle check of ``enumerate_schur``: the triple count of every coloring, triple by triple."""
    ts = triples(n)
    counts: dict[int, int] = {}
    for coloring in itertools.product(range(c), repeat=n):
        x = sum(1 for t in ts if len({coloring[e - 1] for e in t}) == 1)
        counts[x] = counts.get(x, 0) + 1
    return counts, c**n


# -- domino boards ------------------------------------------------------------


def board_counts(m: int, n: int) -> tuple[dict[int, int], int]:
    """Oracle check of ``enumerate_boards``: the same-number slots of every board, read off its bits.

    Cell (r, col) is bit r*n + col; a horizontal slot is a cell and its
    right neighbor, a vertical one a cell and the cell below.
    """
    cells = m * n
    right = sum(1 << (r * n + col) for r in range(m) for col in range(n - 1))
    down = (1 << ((m - 1) * n)) - 1
    counts: dict[int, int] = {}
    for board in range(1 << cells):
        x = (right & ~(board ^ (board >> 1))).bit_count() + (down & ~(board ^ (board >> n))).bit_count()
        counts[x] = counts.get(x, 0) + 1
    return counts, 1 << cells


def perimeter_counts(w: int, rows: int) -> list[int]:
    """Oracle check of ``domino._face_sweep``: N_j for j = 0..A, every set of unit faces counted by its perimeter.

    The faces of a grid of ``rows`` rows of ``w`` cells form rows - 1 rows
    of c = w - 1; face (i, j) is bit i*c + j.  An edge between two faces,
    or between a face and the outside, is on the boundary when exactly one
    side is in the set.
    """
    c = w - 1
    faces = c * (rows - 1)
    first = sum(1 << (i * c) for i in range(rows - 1))
    last = first << (c - 1) if c else 0
    counts = [0] * (2 * w * rows - w - rows + 1)
    for chosen in range(1 << faces):
        across = (chosen ^ (chosen << c)).bit_count()  # above each face, and below the last row
        along = ((chosen ^ (chosen >> 1)) & ~last).bit_count()  # right of each face but the last in its row
        counts[across + along + (chosen & first).bit_count() + (chosen & last).bit_count()] += 1
    return counts


# -- boolean subcubes ---------------------------------------------------------


def subcube_positions(n: int, k: int) -> tuple[int, ...]:
    """Oracle check behind criteria 6 and 8: the vertex masks of all axis-aligned k-subcubes of the n-cube."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    positions = []
    for free in itertools.combinations(range(n), k):
        fixed = [i for i in range(n) if i not in free]
        for bits in range(1 << (n - k)):
            base = sum(1 << coord for j, coord in enumerate(fixed) if (bits >> j) & 1)
            mask = 0
            for corner in range(1 << k):
                v = base | sum(1 << coord for j, coord in enumerate(free) if (corner >> j) & 1)
                mask |= 1 << v
            positions.append(mask)
    return tuple(positions)


def subcube_plan(n: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Oracle check of ``sample_boolean``: one (shifts, base) pair per set S of k free coordinates.

    A k-subcube with free coordinates S is a base vertex v, 0 on S, with f
    set at v + offset_T for every T <= S.  AND-ing f with itself shifted down
    by 2^i for each i in S sets bit v exactly then, and ``base`` keeps the v
    that are 0 on S.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    plan = []
    for free in itertools.combinations(range(n), k):
        base = sum(1 << v for v in range(1 << n) if not any(v >> i & 1 for i in free))
        plan.append((tuple(1 << i for i in free), base))
    return tuple(plan)


def subcube_counter(n: int, k: int):
    """Oracle check of ``sample_boolean``: the function mask -> its k-subcube count, one mask at a time."""
    if k == 0:
        return int.bit_count
    plan = subcube_plan(n, k)

    def count(mask: int) -> int:
        x = 0
        for shifts, base in plan:
            g = mask
            for s in shifts:
                g &= g >> s
            x += (g & base).bit_count()
        return x

    return count


def boolean_counts(n: int, k: int) -> tuple[dict[int, int], int]:
    """Oracle check of ``enumerate_boolean``: the k-subcube count of every boolean function on the n-cube."""
    subcubes = subcube_counter(n, k)
    counts: dict[int, int] = {}
    for f in range(1 << (1 << n)):
        x = subcubes(f)
        counts[x] = counts.get(x, 0) + 1
    return counts, 1 << (1 << n)


def central_coefficient(r: int, t: int) -> Fraction:
    """Criterion 7: the coefficient of 2^{n(r-t)} in E[(X-mu)^r] for the 0-cube count, by a Stirling double sum.

    sum_{i=t}^r (-1/2)^{r-i} C(r,i) sum_{j=i-t}^i (1/2^j) {i brace j} s(j, i-t)
    with signed Stirling numbers of the first kind.
    """
    if not 0 <= t <= r:
        raise ValueError("need 0 <= t <= r")
    acc = Fraction(0)
    for i in range(t, r + 1):
        inner = Fraction(0)
        for j in range(i - t, i + 1):
            inner += Fraction(stirling2(i, j) * stirling1_signed(j, i - t), 2**j)
        acc += Fraction(-1, 2) ** (r - i) * binomial(r, i) * inner
    return acc


def h_moments_by_sum(n: int, k: int) -> dict[str, Fraction]:
    """p_k, E[Y], E[Y(Y-1)] and Var[Y] of H_n(q) by exact summation over the 2^n + 1 values of m.

    With M = C(m, 2^k):  E[Y] = sum_m C(2^n, m) M p / 2^{2^n}  and
    E[Y(Y-1)] = sum_m C(2^n, m) M(M-1) p^2 / 2^{2^n}.
    """
    p = boolean.h_probability(n, k)
    N = 2**n
    ey_num = eyy_num = 0
    for m, comb in enumerate(binomial_row(N)):
        M = math.comb(m, 2**k)
        ey_num += comb * M
        eyy_num += comb * M * (M - 1)
    ey = Fraction(ey_num, 2**N) * p
    eyy = Fraction(eyy_num, 2**N) * p * p
    return {"p": p, "mean": ey, "second_factorial": eyy, "variance": eyy + ey - ey * ey}


def h_moments_by_fractions(n: int, k: int) -> dict[str, Fraction]:
    """p_k, E[Y], E[Y(Y-1)] and Var[Y] of H_n(q) from binomial moments of m, in Fraction arithmetic.

    The formulas of ``boolean.h_moments``, which keeps integer numerators
    over powers of two instead:  E[Y] = p C(2^n, B) / 2^B and
    E[Y(Y-1)] = p^2 E[M^2] - p E[Y], with B = 2^k and
    2^(2B) E[M^2] = sum_i C(B+i, B) C(B, i) C(2^n, B+i) 2^(B-i).
    """
    p = boolean.h_probability(n, k)
    N, B = 2**n, 2**k
    first = math.comb(N, B)
    ey = p * Fraction(first, 1 << B)
    # each term is the one before times (B - i) (N - B - i) / (2 (i + 1)^2)
    term, s = first << B, 0
    for i in range(min(B, N - B) + 1):
        s += term
        term = term * (B - i) * (N - B - i) // (2 * (i + 1) ** 2)
    eyy = p * p * Fraction(s, 1 << 2 * B) - p * ey
    return {"p": p, "mean": ey, "second_factorial": eyy, "variance": eyy + ey - ey * ey}


def sample_counts(n: int, k: int, count: int, seed: int) -> tuple[dict[int, int], int]:
    """Oracle check of ``sample_boolean``: the same draws, getrandbits(2^n) per sample, counted one at a time."""
    rng = random.Random(seed)
    subcubes = subcube_counter(n, k)
    counts: dict[int, int] = {}
    for _ in range(count):
        x = subcubes(rng.getrandbits(1 << n))
        counts[x] = counts.get(x, 0) + 1
    return counts, count


# -- series: the centered generating functions --------------------------------


def moments_to_cumulants(moments: Sequence) -> list:
    """Cumulant checks of ``moment_algebra.cumulants_to_moments``: kappa_0..kappa_r from moments m_0 = 1, ..., m_r.

    The recursion m_j = sum_k C(j-1, k-1) kappa_k m_{j-k} solved for
    kappa_j, over numbers or Polynomials.
    """
    kappa = [moments[0] * 0]
    for j in range(1, len(moments)):
        terms = (math.comb(j - 1, k - 1) * kappa[k] * moments[j - k] for k in range(1, j) if kappa[k])
        kappa.append(moments[j] - sum(terms, kappa[0]))
    return kappa


def generalized_binomial_series(alpha, order: int, var: str = "z") -> TruncatedSeries:
    """Criteria 4 and 12: (1 + var)^alpha for a rational or polynomial alpha, to var^order.

    The coefficient of var^i is alpha(alpha-1)...(alpha-i+1)/i!.
    """
    coeffs = [falling_factorial(alpha, i) * Fraction(1, math.factorial(i)) for i in range(order + 1)]
    return TruncatedSeries(var, order, coeffs)


def exp_series(a: TruncatedSeries) -> TruncatedSeries:
    """Criterion 12: exp of a series with zero constant term."""
    if a.coeffs[0]:
        raise ValueError("exp_series requires a zero constant term")
    out = TruncatedSeries.constant(1, a.order, a.var)
    term = TruncatedSeries.constant(1, a.order, a.var)
    for k in range(1, a.order + 1):
        term = term * a / k
        out = out + term
    return out


def log_series(a: TruncatedSeries) -> TruncatedSeries:
    """Criterion 12: log of a series with constant term 1, the inverse of exp_series."""
    if a.coeffs[0] != Fraction(1):
        raise ValueError("log_series requires constant term 1")
    u = a - 1
    out = TruncatedSeries.constant(0, a.order, a.var)
    upow = TruncatedSeries.constant(1, a.order, a.var)
    for k in range(1, a.order + 1):
        upow = upow * u
        out = out + upow * Fraction((-1) ** (k + 1), k)
    return out


def half_binomial_series(a, order: int) -> TruncatedSeries:
    """Criterion 4: (1 + z/2)^a (1 + z)^(-a/2) = E[(1+z)^(X - a/2)] for X ~ Binomial(a, 1/2), to z^order.

    ``a`` is a rational or a Polynomial.
    """
    up = generalized_binomial_series(a, order)
    halved = TruncatedSeries(up.var, order, [c * Fraction(1, 2**i) for i, c in enumerate(up.coeffs)])
    return halved * generalized_binomial_series(a * Fraction(-1, 2), order)


def p_series_k0(order: int) -> TruncatedSeries:
    """Criterion 4: P(n, z) = [(2+z)/(2 sqrt(1+z))]^w of the boolean 0-cube count, over polynomials in w = 2^(n-1).

    The centered generating function of Binomial(w, 1/2), the summand that
    takes the 0-cube count from n - 1 to n: G_n(1+z) = P(n, z) G_{n-1}(1+z).
    """
    return half_binomial_series(Polynomial.variable("w"), order)


def board1n_p_series(order: int) -> TruncatedSeries:
    """Criterion 4: P_n(1+z) = (2+z)/(2 sqrt(1+z)) = 1 + z^2/8 - z^3/8 + 15 z^4/128 - ... of the 1-by-n board."""
    return half_binomial_series(1, order)


def board1n_binomial_moments_symbolic(r_max: int) -> MomentVector:
    """Criterion 9: B_r(n) of the 1-by-n domino board as polynomials in n.

    The n - 1 slots of the board are independent fair coins, so the count
    is Binomial(n - 1, 1/2); its central moments are converted once.
    """
    entries = half_binomial_moments(Polynomial.variable("n") - 1, r_max, central=True)
    return raw_to_binomial(MomentVector("central", entries))


# -- quasi-polynomial fits by divided differences -----------------------------


def interpolate(points: Sequence[tuple[int, Fraction]]) -> Polynomial:
    """Criterion 2: the polynomial in n through ``points`` (distinct nodes, any order, any spacing), exactly.

    One divided-difference table gives the Newton coefficients c_j, its top
    edge; p(n) = c_0 + (n - x_0)(c_1 + (n - x_1)(c_2 + ...)) is then expanded
    Horner-style, one product with a linear factor per node.
    """
    xs = [x for x, _ in points]
    column = [Fraction(y) for _, y in points]
    newton = [column[0]]
    for j in range(1, len(xs)):
        column = [(b - a) / (xs[i + j] - xs[i]) for i, (a, b) in enumerate(zip(column, column[1:]))]
        newton.append(column[0])
    poly = Polynomial("n", ())
    for x, c in zip(reversed(xs), reversed(newton)):
        poly = poly * Polynomial("n", (-x, 1)) + c
    return poly


def fit_quasi_polynomial(spec: FitSpec) -> QuasiPolynomial:
    """Criterion 2: the fit of ``spec``, one divided-difference table per residue class, each held-out point evaluated.

    Raises the :class:`FitVerificationError` of the first held-out point,
    in class order, that the class's polynomial misses.
    """
    branches = []
    for j in range(spec.period):
        pts = sorted((n, v) for n, v in spec.samples if n % spec.period == j)
        poly = interpolate(pts[: spec.degree + 1])
        for n, v in pts[spec.degree + 1 :]:
            if poly.eval(n) != v:
                raise FitVerificationError(j, n, v, poly.eval(n))
        branches.append(poly)
    return QuasiPolynomial(spec.period, branches)


# -- leading terms by extrapolation -------------------------------------------


@dataclass(frozen=True)
class LeadingTermResult:
    estimate: Fraction
    converged: bool
    level: int  # extrapolation depth the estimate was taken from
    diagnostics: tuple[Fraction, ...]  # successive extrapolation estimates


def fit_leading_term(data: Sequence[tuple[int, Fraction]], degree: int) -> LeadingTermResult:
    """Criterion 11: the coefficient of n^degree, estimated by extrapolation in 1/n.

    ``value / n^degree`` is treated as a polynomial in 1/n and extrapolated
    to 0 by Neville's algorithm over exact rationals.  The reported value
    is the tableau level with the smallest correction (the usual stopping
    rule for sequence acceleration): on exactly polynomial input of the
    hypothesized degree the corrections vanish and the answer is exact,
    while data with a non-polynomial tail stops before the deep levels
    amplify it.  A tail whose corrections only ever grow is flagged
    non-convergent.
    """
    pts = sorted((int(n), Fraction(v)) for n, v in data)
    if len(pts) < 3:
        raise ValueError("need at least 3 data points at large n")
    if any(n <= 0 for n, _ in pts):
        raise ValueError("data points must have n >= 1")
    xs = [Fraction(1, n) for n, _ in pts]
    ys = [v / Fraction(n) ** degree for n, v in pts]

    # Neville tableau evaluated at x = 0; level k keeps the entry built
    # from the last k+1 points, which leans on the largest n values.
    estimates: list[Fraction] = [ys[-1]]
    tableau = list(ys)
    m = len(pts)
    for k in range(1, m):
        tableau = [
            (xs[i + k] * tableau[i] - xs[i] * tableau[i + 1]) / (xs[i + k] - xs[i]) for i in range(m - k)
        ]
        estimates.append(tableau[-1])

    corrections = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    best = min(range(len(corrections)), key=lambda i: (corrections[i], i))
    level = best + 1
    increasing = all(b > a for a, b in zip(corrections, corrections[1:]))
    converged = corrections[best] == 0 or not (increasing and len(corrections) > 1)
    return LeadingTermResult(
        estimate=estimates[level], converged=converged, level=level, diagnostics=tuple(estimates)
    )
