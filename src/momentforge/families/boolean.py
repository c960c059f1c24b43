"""Subcube counts of random boolean functions.

The 0-cube count is Binomial(2^n, 1/2): raw moments are Stirling sums in
W = 2^n, and the centered generating function is [(2+z)/(2 sqrt(1+z))]^W,
so its binomial moments are exact polynomials in w = 2^(n-1).  For k >= 1
the first and second moments come from the overlap sum over pairs of
k-cubes intersecting in an i-cube; the third moment is known for k = 1
only.  H_n(q) is the independence approximation of the k-cube PGF.

PGFs are rows of integer counts over one total, divided once per
coefficient.  The 0-cube PGF is the binomial row C(2^n, d) over 2^(2^n).
H_n(q) with p = a/b is the row of integer numerators over 2^(2^n) b^top,
top = C(2^n, 2^k), each term C(2^n, m) b^(top-M) (a q + b - a)^M with
M = C(m, 2^k) expanded by the binomial theorem; for k = 0, p = 1 and H_n(q)
is the 0-cube PGF itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from momentforge import oracle
from momentforge.errors import SizeGuardError
from momentforge.exact_core import binomial, falling_factorial, stirling1_signed, stirling2
from momentforge.families.common import (
    Family,
    binomial_row,
    count_pgf,
    eval_at_n,
    log_centered_kernel,
    pgf_total,
)
from momentforge.moment_algebra import MomentVector, raw_to_binomial, raw_to_central
from momentforge.poly_series import Polynomial, TruncatedSeries, exp_series

__all__ = [
    "raw_moment_k0",
    "raw_moments_k0",
    "central_moments_k0",
    "central_coefficient",
    "first_moment_k",
    "second_moment_k",
    "variance_k",
    "third_moment_k1",
    "raw_moments_k1",
    "central_moments_k1",
    "p_series_k0",
    "binomial_moments_k0",
    "h_probability",
    "h_moments",
    "h_mean_closed_form",
    "h_polynomial",
]

H_MAX_N = 14  # the 2^n-term sums stay exact; beyond this they are impractical


def _w_poly() -> Polynomial:
    return Polynomial.variable("W")


def _n_poly() -> Polynomial:
    return Polynomial.variable("n")


@lru_cache(maxsize=None)
def raw_moment_k0(r: int) -> Polynomial:
    """E[X^r] for the 0-cube count: sum_i {r brace i} (W)_i / 2^i, W = 2^n."""
    if r < 0:
        raise ValueError("need r >= 0")
    W = _w_poly()
    acc = Polynomial("W", (1,) if r == 0 else ())
    for i in range(1, r + 1):
        acc = acc + falling_factorial(W, i) * Fraction(stirling2(r, i), 2**i)
    return acc


def raw_moments_k0(r_max: int) -> MomentVector:
    return MomentVector(
        "raw", [raw_moment_k0(r) for r in range(r_max + 1)], family="boolean", params={"k": 0}
    )


def central_moments_k0(r_max: int) -> MomentVector:
    """Central moments as polynomials in W; odd entries vanish."""
    return raw_to_central(raw_moments_k0(r_max), _w_poly() / 2)


def central_coefficient(r: int, t: int) -> Fraction:
    """Coefficient of 2^{n(r-t)} in E[(X-mu)^r] for the 0-cube count.

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


def _multinomial_poly(k: int, i: int) -> Polynomial:
    """C(n; i, k-i, k-i, n-2k+i) as a polynomial in n."""
    nn = _n_poly()
    denom = math.factorial(i) * math.factorial(k - i) ** 2
    return falling_factorial(nn, 2 * k - i) * Fraction(1, denom)


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


def raw_moments_k1(r_max: int) -> MomentVector:
    """Raw moments of the 1-cube count, r_max <= 3 (no closed form beyond)."""
    if r_max > 3:
        raise ValueError("k=1 closed forms stop at the third moment")
    return _raw_moments_k(1, r_max)


def _raw_moments_k(k: int, r_max: int) -> MomentVector:
    """Raw moments of the k-cube count through r = 2 (r = 3 for k = 1), truncated at r_max."""
    entries = [Polynomial("W", (1,)), first_moment_k(k), second_moment_k(k)]
    if k == 1:
        entries.append(third_moment_k1())
    return MomentVector("raw", entries[: r_max + 1], family="boolean", params={"k": k})


def central_moments_k1(r_max: int) -> MomentVector:
    if r_max > 3:
        raise ValueError("k=1 closed forms stop at the third moment")
    return raw_to_central(raw_moments_k1(r_max), first_moment_k(1))


@lru_cache(maxsize=None)
def p_series_k0(order: int) -> TruncatedSeries:
    """P(n, z) = [(2+z)/(2 sqrt(1+z))]^w as a z-series over polynomials in w."""
    w = Polynomial.variable("w")
    return exp_series(log_centered_kernel(order) * w)


@lru_cache(maxsize=None)
def binomial_moments_k0(r_max: int, order: int | None = None) -> MomentVector:
    """B_r(n) of the 0-cube count as exact polynomials in w = 2^(n-1).

    G_n(1+z) = [(2+z)/(2 sqrt(1+z))]^{2^n} = exp(2 w L(z)); the recurrence
    G_n = P(n, z) G_{n-1} telescopes because rebasing w -> w/2 turns
    exp(2wL) into exp(wL).
    """
    if order is None:
        order = r_max
    if order < r_max:
        raise ValueError("series order must cover r_max")
    w = Polynomial.variable("w")
    series = exp_series(log_centered_kernel(order) * (2 * w))
    entries = [series.coefficient(r) for r in range(r_max + 1)]
    entries = [e if isinstance(e, Polynomial) else Polynomial.const("w", e) for e in entries]
    return MomentVector("binomial", entries, family="boolean", params={"k": 0}, about_mean=True)


# -- independence approximation H_n(q) (k-cube counts) -----------------------


def h_probability(n: int, k: int) -> Fraction:
    """p_k: probability that 2^k randomly chosen length-n vertices form a k-cube."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return binomial(n, k) * Fraction(math.factorial(2**k), 2**k * 2 ** (n * (2**k - 1)))


def _check_h_n(n: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if n > H_MAX_N:
        raise SizeGuardError(f"H_n(q) sums over 2^n terms; n <= {H_MAX_N} supported")


def h_moments(n: int, k: int) -> dict[str, Fraction]:
    """E[Y] and Var[Y] of the approximating PGF, by exact summation over m.

    With M = C(m, 2^k):  E[Y] = sum_m C(2^n, m) M p / 2^{2^n}  and
    E[Y(Y-1)] = sum_m C(2^n, m) M(M-1) p^2 / 2^{2^n}.
    """
    _check_h_n(n)
    p = h_probability(n, k)
    N = 2**n
    block = 2**k
    ey_num = 0
    eyy_num = 0
    comb = 1  # C(N, m) running value
    for m in range(N + 1):
        if m:
            comb = comb * (N - m + 1) // m
        M = math.comb(m, block)
        ey_num += comb * M
        eyy_num += comb * M * (M - 1)
    scale = Fraction(1, 2**N)
    ey = ey_num * scale * p
    eyy = eyy_num * scale * p * p
    var = eyy + ey - ey * ey
    return {"mean": ey, "second_factorial": eyy, "variance": var}


def h_mean_closed_form(n: int, k: int) -> Fraction:
    """E[Y] = p_k C(2^n, 2^k) / 2^{2^k} (binomial moment of Binomial(2^n, 1/2))."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return h_probability(n, k) * binomial(2**n, 2**k) * Fraction(1, 2 ** (2**k))


def h_polynomial(n: int, k: int, max_degree: int = 2000) -> Polynomial:
    """H_n(q) = sum_m C(2^n, m) (p q + 1 - p)^{C(m, 2^k)} / 2^{2^n}."""
    _check_h_n(n)
    p = h_probability(n, k)
    N = 2**n
    block = 2**k
    top = math.comb(N, block)
    if top > max_degree:
        raise SizeGuardError(
            f"H_{n}(q) for k={k} has degree {top} > {max_degree}; moments remain available"
        )
    if k == 0:  # p = 1
        return count_pgf(binomial_row(N), 2**N)
    a, b = p.numerator, p.denominator
    c = b - a
    a_pow = _powers(a, top)
    b_pow = _powers(b, top)
    c_pow = _powers(c, top)
    # 2^N b^top H_n(q) = sum_m C(N, m) b^(top-M) sum_d C(M, d) a^d c^(M-d) q^d
    numerators = [0] * (top + 1)
    for m, comb in enumerate(binomial_row(N)):
        M = math.comb(m, block)
        weight = comb * b_pow[top - M]
        choose = 1  # C(M, d)
        for d in range(M + 1):
            numerators[d] += weight * choose * c_pow[M - d]
            choose = choose * (M - d) // (d + 1)
    return count_pgf([x * a_pow[d] for d, x in enumerate(numerators)], 2**N * b_pow[top])


def _powers(x: int, top: int) -> list[int]:
    """[x^0, ..., x^top]."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def _max_order(p: dict) -> int | None:
    if not 0 <= p["k"] <= p["n"]:
        raise ValueError("need 0 <= k <= n")
    return None if p["k"] == 0 else 3 if p["k"] == 1 else 2


def _moments(kind: str, r_max: int, p: dict) -> tuple[MomentVector, list[str]]:
    """Moments with their closed forms: in W (k = 0 binomial: in w), coefficients in n.

    For k >= 1 the binomial moments come from the central ones, whose texts
    are the ones returned.
    """
    n, k = p["n"], p["k"]
    if k == 0:
        sym = {"raw": raw_moments_k0, "central": central_moments_k0, "binomial": binomial_moments_k0}[kind](r_max)
    else:
        sym = _raw_moments_k(k, r_max)
        if kind != "raw":
            sym = raw_to_central(sym, first_moment_k(k))
    entries = [eval_at_n(e, n) for e in sym.entries]
    vec = MomentVector(sym.kind, entries, family="boolean", params=p, about_mean=sym.about_mean)
    if sym.kind != kind:
        vec = raw_to_binomial(vec)
    return vec, [e.to_text() for e in sym.entries]


def _closed_pgf(p: dict) -> Polynomial | None:
    """((1+q)/2)^(2^n) for the 0-cube count: the binomial row C(2^n, d) over 2^(2^n)."""
    if p["k"] != 0:
        return None
    N = 1 << p["n"]
    total = pgf_total(N, lambda: 1 << N)
    return count_pgf(binomial_row(N), total)


def _normality_grid(p: dict, r_max: int) -> MomentVector:
    if p["k"] != 0:
        raise ValueError("boolean normality grid supports k=0 only (closed forms)")
    return _moments("central", r_max, p)[0]


FAMILY = Family(
    name="boolean",
    params=("n", "k"),
    defaults={"k": 0},
    space_size=lambda p: 1 << (1 << p["n"]),
    space_bits=lambda p: (1 << p["n"]) + 1,
    max_order=_max_order,
    moments=_moments,
    closed_pgf=_closed_pgf,
    enumerate=lambda p: (oracle.enumerate_boolean(p["n"], p["k"]), {}),
    sample=lambda p, samples, seed: oracle.sample_boolean(p["n"], p["k"], samples, seed),
    normality_grid=_normality_grid,
)
