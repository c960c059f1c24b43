"""Subcube counts of random boolean functions.

The 0-cube count is Binomial(2^n, 1/2), a sum of 2^n independent fair
coins, served by the shared Binomial(N, 1/2) route of ``common``
(``half_binomial_moments``): its numbers are central moments on the
integer 2^n, its printed raw and central moments polynomials in W = 2^n,
and its binomial moments the central ones of Binomial(2w, 1/2) in
w = 2^(n-1), converted when printed.  For k >= 1 the first and second raw
moments come from the overlap sum over pairs of k-cubes intersecting in
an i-cube; the third is known for k = 1 only.  They are built once per k
and order (cached), evaluated at n for the numbers and converted to every
printed kind as the numbers are.  Every numeric request, k >= 1 too, is
charged to ``NUMERIC_ORDER_GUARD`` before 2^n is built.  H_n(q) is the
independence approximation of the k-cube PGF; its moments come from the
binomial moments of Binomial(2^n, 1/2) (``h_moments``), with no sum over
its 2^n + 1 values, as integers over powers of two.

PGFs are rows of integer counts over one total, reduced only when
printed.  The 0-cube PGF is the binomial row C(2^n, d) over 2^(2^n)
(``half_binomial_pgf``).  H_n(q) with p = a/b is the row of integer
numerators over 2^(2^n) b^top, top = C(2^n, 2^k), each term
C(2^n, m) b^(top-M) (a q + b - a)^M with M = C(m, 2^k) expanded by the
binomial theorem; for k = 0, p = 1 and H_n(q) is the 0-cube PGF itself.
For k >= 1 a lower bound on its ``PGF_GUARD`` weight is charged before
its total, a power or a row is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from momentforge import oracle
from momentforge.exact_core import binomial, falling_factorial
from momentforge.families import common
from momentforge.families.common import (
    Family,
    binomial_row,
    charge,
    charge_size,
    eval_at_n,
    half_binomial_moments,
    half_binomial_pgf,
)
from momentforge.moment_algebra import MomentVector, convert, raw_to_binomial
from momentforge.poly_series import Polynomial

__all__ = ["FAMILY", "h_moments", "h_polynomial"]

# Highest n of approx-h: H_n(q) sums over the 2^n + 1 values of m, its
# moments over at most 2^k + 1 terms.  As a whole process on one Intel Xeon
# core, approx-h --n 14 --k 14 --with-polynomial takes 2.4-2.7 s.
H_MAX_N = 14
# Highest cube dimension k of the moment routes.  E[X] carries 2^(2^k) and
# E[X^2] 2^(2^(k+1)) in their denominators, whose bit lengths double per
# step of k: as a whole process on one Intel Xeon core,
# moments --family boolean --n 15 --k 15 --r 2 takes 1.6-1.8 s.
CUBE_GUARD = 15
# Bound on n^2 (r_max^3 + 8), a normality grid point's share that only its
# grid pays: the point's moments are numbers of about n r / 2 bits (the
# powers of W = 2^n), and normalizing them takes exact divisions, each
# quadratic in that length; the 8 stands for what a point pays at any
# order (the variance over itself, its square root).  As a whole process
# on one Intel Xeon core, normality --family boolean --n-grid 1,2,999999
# --r-max 2 (at the guard) takes 2.4-3.1 s.
GRID_GUARD = 16 * 10**12


def _n_poly() -> Polynomial:
    return Polynomial.variable("n")


def _multinomial_poly(k: int, i: int) -> Polynomial:
    """C(n; i, k-i, k-i, n-2k+i) as a polynomial in n."""
    nn = _n_poly()
    denom = math.factorial(i) * math.factorial(k - i) ** 2
    return falling_factorial(nn, 2 * k - i) * Fraction(1, denom)


@lru_cache(maxsize=None)
def first_moment_k(k: int) -> Polynomial:
    """E[X_k] = C(n,k) 2^{n-k} / 2^{2^k}, in W with an n-polynomial coefficient."""
    if k < 0:
        raise ValueError("need k >= 0")
    nn = _n_poly()
    ck = falling_factorial(nn, k) * Fraction(1, math.factorial(k))
    coef = ck * Fraction(1, 2**k * 2 ** (2**k))
    return Polynomial("W", (0, coef))


def second_moment_k(k: int) -> Polynomial:
    """E[X_k^2] = Var(X_k) + E[X_k]^2."""
    return variance_k(k) + first_moment_k(k) ** 2


def variance_k(k: int) -> Polynomial:
    """Var(X_k): the overlap sum alone (the disjoint part cancels E[X]^2)."""
    if k < 0:
        raise ValueError("need k >= 0")
    denom = 2 ** (2 ** (k + 1))
    acc = Polynomial("W", ())
    for i in range(k + 1):
        weight = _multinomial_poly(k, i) * Fraction(2 ** (2**i) - 1, 2**i * denom)
        acc = acc + Polynomial("W", (0, weight))
    return acc


def third_moment_k1() -> Polynomial:
    """E[X_1^3] = (n^2/2^9) [24 n 2^n + 6(2n+1) 4^n + n 8^n]."""
    nn = _n_poly()
    scale = Fraction(1, 512)
    return Polynomial(
        "W",
        (
            0,
            nn * nn * nn * (24 * scale),
            nn * nn * (2 * nn + 1) * (6 * scale),
            nn * nn * nn * scale,
        ),
    )


@lru_cache(maxsize=None)
def _raw_moments_k(k: int, r_max: int) -> MomentVector:
    """Raw moments of the k-cube count through r = 2 (r = 3 for k = 1), truncated at r_max."""
    entries = [Polynomial("W", (1,)), first_moment_k(k), second_moment_k(k)]
    if k == 1:
        entries.append(third_moment_k1())
    return MomentVector("raw", entries[: r_max + 1])


# -- independence approximation H_n(q) (k-cube counts) -----------------------


def h_probability(n: int, k: int) -> Fraction:
    """p_k: probability that 2^k randomly chosen length-n vertices form a k-cube."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return binomial(n, k) * Fraction(math.factorial(2**k), 2**k * 2 ** (n * (2**k - 1)))


def _check_h_n(n: int, k: int) -> None:
    """Refuse n < 1, n past H_MAX_N and k outside 0 <= k <= n, before 2^k or (2^k)! is built."""
    if n < 1:
        raise ValueError("need n >= 1")
    charge(n, H_MAX_N, "H_MAX_N", "H_n(q) sums over 2^n terms: n", summed=False)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")


def h_moments(n: int, k: int) -> dict[str, Fraction]:
    """p_k, E[Y], E[Y(Y-1)] and Var[Y] of the approximating PGF, from binomial moments of m.

    m ~ Binomial(2^n, 1/2) has E[C(m, j)] = C(2^n, j) / 2^j, and Y given m
    is Binomial(M, p), M = C(m, B), B = 2^k:  E[Y] = p E[M] and
    E[Y(Y-1)] = p^2 E[M^2] - p E[Y].  C(m, B)^2 = sum_{i <= B} C(B+i, B)
    C(B, i) C(m, B+i) gives 2^(2B) E[M^2] = sum_i C(B+i, B) C(B, i) C(2^n, B+i) 2^(B-i).
    p = P / 2^e with P = C(n, k) B! and e = k + n (B - 1), so every value is
    an integer over a power of two, reduced once, by a shift.
    """
    _check_h_n(n, k)
    N = 2**n
    B = 2**k
    P, e = math.comb(n, k) * math.factorial(B), k + n * (B - 1)
    first = math.comb(N, B)
    # each term is the one before times (B - i) (N - B - i) / (2 (i + 1)^2)
    term, s = first << B, 0
    for i in range(min(B, N - B) + 1):
        s += term
        term = term * (B - i) * (N - B - i) // (2 * (i + 1) ** 2)
    # E[Y] over 2^(e+B); E[Y(Y-1)] = P^2 (s - 2^B first) and
    # Var[Y] = E[Y(Y-1)] + E[Y] - E[Y]^2 over 2^(2e+2B)
    ey = P * first
    eyy = P * P * (s - (first << B))
    var = eyy + (ey << e + B) - ey * ey
    return {
        "p": h_probability(n, k),
        "mean": _dyadic(ey, e + B),
        "second_factorial": _dyadic(eyy, 2 * (e + B)),
        "variance": _dyadic(var, 2 * (e + B)),
    }


def _dyadic(num: int, exp: int) -> Fraction:
    """num / 2^exp, its trailing zero bits cancelled by a shift."""
    shift = min((num & -num).bit_length() - 1, exp) if num else exp
    return Fraction(num >> shift, 1 << exp - shift)


def h_polynomial(n: int, k: int) -> Polynomial:
    """H_n(q) = sum_m C(2^n, m) (p q + 1 - p)^{C(m, 2^k)} / 2^{2^n}; SizeGuardError past PGF_GUARD.

    (degree + 1) * bit_length(total) >= (top + 1) (2^n + top (bit_length(b) - 1) + 1) is charged first.
    """
    _check_h_n(n, k)
    p = h_probability(n, k)
    N = 2**n
    if k == 0:  # p = 1
        return half_binomial_pgf(N)
    block = 2**k
    top = math.comb(N, block)
    a, b = p.numerator, p.denominator
    what = f"H_{n}(q) for k={k}, of degree {common._shown(top)}: a lower bound on (degree + 1) * bit_length(total)"
    charge((top + 1) * (N + top * (b.bit_length() - 1) + 1), common.PGF_GUARD, "PGF_GUARD", what)
    total = common.pgf_total(top, lambda: b**top << N)
    c = b - a
    a_pow = _powers(a, top)
    b_pow = _powers(b, top)
    c_pow = _powers(c, top)
    # 2^N b^top H_n(q) = sum_m C(N, m) b^(top-M) sum_d C(M, d) a^d c^(M-d) q^d,
    # M = C(m, block): every m < block has M = 0 and adds to q^0 alone
    row = binomial_row(N)
    numerators = [0] * (top + 1)
    numerators[0] = sum(row[:block]) * b_pow[top]
    M = 1
    for m in range(block, N + 1):
        weight = row[m] * b_pow[top - M]
        for d, choose in enumerate(binomial_row(M)):
            numerators[d] += weight * choose * c_pow[M - d]
        M = M * (m + 1) // (m + 1 - block)
    return Polynomial("q", [x * a_pow[d] for d, x in enumerate(numerators)], total)


def _powers(x: int, top: int) -> list[int]:
    """[x^0, ..., x^top]."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def _check_k(p: dict) -> None:
    if not 0 <= p["k"] <= p["n"]:
        raise ValueError("need 0 <= k <= n")


def _max_order(p: dict) -> int | None:
    """The highest order of the moment routes, once k is checked against CUBE_GUARD."""
    _check_k(p)
    charge(p["k"], CUBE_GUARD, "CUBE_GUARD", "the cube dimension k", summed=False)
    return None if p["k"] == 0 else 3 if p["k"] == 1 else 2


def _moments(r_max: int, p: dict) -> MomentVector:
    """k = 0: the central moments of Binomial(2^n, 1/2) on integers; k >= 1: the raw forms at n."""
    n, k = p["n"], p["k"]
    # a normality grid point is charged its normalization first
    charge(
        n * n * (r_max**3 + 8), GRID_GUARD, "GRID_GUARD",
        f"normalizing moments to order {r_max}: n^2 (r_max^3 + 8)", alone=False,
    )
    # alone, before 2^n is built: the weight uniform_sum_moments gives Binomial(2^n, 1/2),
    # whose kappa_2 = 2^n / 4 has n bits (4 - n below n = 2); a grid point is weighed
    # by GRID_GUARD above and, at k = 0, by its cumulants as before
    common.charge_numeric_order(max(r_max, 1), max(1, (n if n > 1 else 4 - n) // 2), summed=False)
    if k == 0:
        return MomentVector("central", half_binomial_moments(1 << n, r_max, central=True))
    return MomentVector("raw", [eval_at_n(e, n) for e in _raw_moments_k(k, r_max).entries])


def _closed_forms(kind: str, r_max: int, p: dict) -> list[Polynomial]:
    """The moments in W (k = 0 binomial: in w), coefficients in n."""
    k = p["k"]
    if k != 0:
        return list(convert(_raw_moments_k(k, r_max), kind, first_moment_k(k)).entries)
    if kind != "binomial":
        return half_binomial_moments(Polynomial.variable("W"), r_max, kind == "central")
    central = half_binomial_moments(2 * Polynomial.variable("w"), r_max, central=True)
    return list(raw_to_binomial(MomentVector("central", central)).entries)


def _closed_pgf(p: dict) -> Polynomial | None:
    """((1+q)/2)^(2^n) for the 0-cube count: the binomial row C(2^n, d) over 2^(2^n).

    Its 2^n + 1 coefficients are charged from n first, so 2^n is never built past PGF_GUARD.
    """
    _check_k(p)
    if p["k"]:
        return None
    n = p["n"]
    what = f"a PGF of degree 2^{n}: its coefficients, degree + 1"
    charge_size(n + 1, lambda: (1 << n) + 1, common.PGF_GUARD, "PGF_GUARD", what)
    return half_binomial_pgf(1 << n)


FAMILY = Family(
    name="boolean",
    params=("n", "k"),
    defaults={"k": 0},
    space_size=lambda p: 1 << (1 << p["n"]),
    space_bits=lambda p: (1 << p["n"]) + 1,
    max_order=_max_order,
    moments=_moments,
    mean=lambda p: Fraction(1 << p["n"], 2) if p["k"] == 0 else eval_at_n(first_moment_k(p["k"]), p["n"]),
    closed_pgf=_closed_pgf,
    enumerate=lambda p: (oracle.enumerate_boolean(p["n"], p["k"]), {}),
    sample=lambda p, samples, seed: oracle.sample_boolean(p["n"], p["k"], samples, seed),
    closed_forms=_closed_forms,
)
