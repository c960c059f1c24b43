"""Same-number domino counts on random 0/1 boards.

With A = 2mn - m - n domino slots and mu = A/2, the Stirling sum
E[X^r] = sum_i {r brace i} (A)_i / 2^i is a polynomial in mu alone.  It is
exact only for r <= 3 or on a 1-by-n (m-by-1) board, where the slots form a
forest.  On a board with m, n >= 2 the four slots around a lattice square
are all same-number with probability 1/2^3, not 1/2^4, so from r = 4 on the
moments depend on the board and not on mu alone (2x2 at r = 4: the sum
gives 85/2, the true value is 44).  The mu-polynomials are kept as the
printed closed forms on that domain; everywhere else the moments come from
an integer broken-profile transfer matrix (Stanley, EC1 section 4.7).

The 1-by-n board has the explicit centered generating function
G_n(1+z) = [(2+z)/(2 sqrt(1+z))]^(n-1), giving binomial moments that are
polynomials in n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

from momentforge import oracle
from momentforge.errors import SizeGuardError
from momentforge.exact_core import falling_factorial, stirling2
from momentforge.families.common import (
    Family,
    binomial_row,
    count_pgf,
    log_centered_kernel,
    mgf_digits,
    pgf_total,
)
from momentforge.moment_algebra import MomentVector, binomial_to_raw, raw_to_binomial, raw_to_central
from momentforge.poly_series import Polynomial, TruncatedSeries, exp_series

__all__ = [
    "slot_count",
    "mean",
    "raw_moment_symbolic",
    "raw_moments_symbolic",
    "TRANSFER_GUARD",
    "in_closed_form_domain",
    "binomial_sums",
    "raw_moments",
    "raw_moment",
    "scaled_raw_moment",
    "central_moments_symbolic",
    "central_moments",
    "board1n_p_series",
    "board1n_binomial_moments_symbolic",
    "board1n_binomial_moments",
    "board1n_central_moments",
    "mgf_deviation_1n",
]


def slot_count(m: int, n: int) -> int:
    """A = 2mn - m - n, the number of domino positions."""
    _check(m, n)
    return 2 * m * n - m - n


def mean(m: int, n: int) -> Fraction:
    """mu = mn - m/2 - n/2 = A/2."""
    return Fraction(slot_count(m, n), 2)


@lru_cache(maxsize=None)
def raw_moment_symbolic(r: int) -> Polynomial:
    """E[X^r] as a polynomial in mu: sum_i {r brace i} (2 mu)_i / 2^i."""
    if r < 0:
        raise ValueError("need r >= 0")
    mu = Polynomial.variable("mu")
    acc = Polynomial("mu", (1,) if r == 0 else ())
    for i in range(1, r + 1):
        acc = acc + falling_factorial(2 * mu, i) * Fraction(stirling2(r, i), 2**i)
    return acc


def raw_moments_symbolic(r_max: int) -> MomentVector:
    return MomentVector(
        "raw", [raw_moment_symbolic(r) for r in range(r_max + 1)], family="domino"
    )


def in_closed_form_domain(m: int, n: int, r: int) -> bool:
    """True where the mu-polynomials of orders <= r are exact: r <= 3 or min(m, n) = 1."""
    return r <= 3 or min(m, n) == 1


def raw_moments(m: int, n: int, r_max: int) -> MomentVector:
    """Exact E[X^r] for r = 0..r_max on the m-by-n board.

    Route: the mu-polynomials on their domain (see
    :func:`in_closed_form_domain`), else the transfer matrix behind
    :func:`binomial_sums`, with E[X^q] = sum_k S(q,k) k! b_k / 2^{mn}.
    """
    _check(m, n)
    if r_max < 0:
        raise ValueError("need r >= 0")
    if in_closed_form_domain(m, n, r_max):
        value = mean(m, n)
        entries = [raw_moment_symbolic(r).eval(value) for r in range(r_max + 1)]
    else:
        b = binomial_sums(m, n, r_max)
        total = 2 ** (m * n)
        entries = [
            Fraction(
                sum(stirling2(q, k) * math.factorial(k) * b[k] for k in range(q + 1)), total
            )
            for q in range(r_max + 1)
        ]
    return MomentVector("raw", entries, family="domino", params={"m": m, "n": n})


def raw_moment(m: int, n: int, r: int) -> Fraction:
    """Exact E[X^r], routed as in :func:`raw_moments`."""
    return raw_moments(m, n, r).entries[r]


def scaled_raw_moment(m: int, n: int, r: int) -> int:
    """2^{mn} E[X^r], the integers printed in the data tables."""
    value = raw_moment(m, n, r) * 2 ** (m * n)
    assert value.denominator == 1
    return value.numerator


def central_moments_symbolic(r_max: int) -> MomentVector:
    """E[(X-mu)^r] as polynomials in mu; all odd entries vanish.

    Exact only on the domain of :func:`in_closed_form_domain`.
    """
    mu = Polynomial.variable("mu")
    return raw_to_central(raw_moments_symbolic(r_max), mu)


def central_moments(m: int, n: int, r_max: int) -> MomentVector:
    """Exact E[(X-mu)^r] for r = 0..r_max on the m-by-n board.

    Route: the central mu-polynomials on their domain, else the transfer
    matrix via :func:`raw_moments`.
    """
    value = mean(m, n)
    if not in_closed_form_domain(m, n, r_max):
        return raw_to_central(raw_moments(m, n, r_max), value)
    sym = central_moments_symbolic(r_max)
    return MomentVector(
        "central",
        [e.eval(value) for e in sym.entries],
        family="domino",
        params={"m": m, "n": n},
    )


# Bound on the transfer-matrix work m*n*2^w*r (w = min(m, n)).  One unit
# costs 0.1 to 0.25 us on one Intel Xeon core (the most for w = 2), so a run
# at the guard takes 10 to 25 s.
TRANSFER_GUARD = 10**8


def binomial_sums(m: int, n: int, r: int) -> tuple[int, ...]:
    """b_k = sum over all 2^{mn} boards of C(X, k), for k = 0..r.

    Raises SizeGuardError when m*n*2^w*r exceeds TRANSFER_GUARD.
    """
    _check(m, n)
    if r < 0:
        raise ValueError("need r >= 0")
    w = min(m, n)
    work = m * n * 2**w * r
    if work > TRANSFER_GUARD:
        raise SizeGuardError(
            f"transfer matrix for the {m}x{n} board at r = {r} needs "
            f"m*n*2^{w}*r = {work} steps, beyond the {TRANSFER_GUARD} size guard"
        )
    return _binomial_sums(w, max(m, n), r)


@lru_cache(maxsize=None)
def _binomial_sums(w: int, length: int, r: int) -> tuple[int, ...]:
    """Broken-profile transfer matrix over a board `length` rows of `w` cells.

    Cells are placed row by row; the state is the w most recent cells, bit j
    being the cell in column j.  Each state carries sum C(X, k) z^k over the
    partial boards that end in it, truncated at z^r and packed into one
    integer, `width` bits per coefficient.  A new cell multiplies by (1+z)
    once per same-number neighbour to its left or above.

    Two savings keep this fast.  Complementing every cell preserves X, so
    only states with bit w-1 clear are stored, each standing for itself and
    its complement, and cell (0, 0) is fixed to 0.  And once c cells are
    placed, each state stands for 2^{c-w} partial boards, over which
    E[C(X, k)] has a denominator dividing 2^k (k slots tie at most k cells
    to the rest), so every coefficient is divisible by 2^{c-w-r}.  That
    power of 2 is shifted out as it accrues, and the integers stay near
    r*log2(A) bits instead of growing with mn.
    """
    cells = w * length
    slots = 2 * cells - w - length
    width = w + r + 2 + max(math.comb(slots, k) for k in range(r + 1)).bit_length()
    mask = (1 << (width * (r + 1))) - 1
    low_bits = sum(1 << (width * k) for k in range(r + 1))
    full = (1 << w) - 1
    top = 1 << (w - 1)
    shifted = 0
    states = {0: 1}
    for idx in range(1, cells):
        i, j = divmod(idx, w)
        bit = 1 << j
        new: dict[int, int] = {}
        for s, c in states.items():
            s0 = s & ~bit
            s1 = s | bit
            if s0 & top:
                s0 ^= full
            if s1 & top:
                s1 ^= full
            if i and j:
                up = (s >> j) & 1
                if up == (s >> (j - 1)) & 1:
                    c2 = (c + (c << (width + 1)) + (c << (2 * width))) & mask
                    d0, d1 = (c2, c) if up == 0 else (c, c2)
                else:
                    d0 = d1 = (c + (c << width)) & mask
            elif i or j:
                other = (s >> j) & 1 if i else (s >> (j - 1)) & 1
                c1 = (c + (c << width)) & mask
                d0, d1 = (c1, c) if other == 0 else (c, c1)
            else:
                d0 = d1 = c
            new[s0] = new.get(s0, 0) + d0
            new[s1] = new.get(s1, 0) + d1
        if idx + 1 - w - r > shifted:
            shifted += 1
            for s, c in new.items():
                assert not c & low_bits, "coefficient not divisible by the accrued power of 2"
                new[s] = c >> 1
        states = new
    total = 2 * sum(states.values())
    coefficient = (1 << width) - 1
    return tuple(((total >> (width * k)) & coefficient) << shifted for k in range(r + 1))


@lru_cache(maxsize=None)
def board1n_p_series(order: int) -> TruncatedSeries:
    """P_n(1+z) = (2+z)/(2 sqrt(1+z)) = 1 + z^2/8 - z^3/8 + 15 z^4/128 - ..."""
    return exp_series(log_centered_kernel(order))


@lru_cache(maxsize=None)
def board1n_binomial_moments_symbolic(r_max: int) -> MomentVector:
    """B_r(n) of the 1-by-n board as polynomials in n.

    The product of the P_m(1+z) steps for m = 2..n telescopes to
    exp((n-1) L(z)), whose z-coefficients are the binomial moments.
    """
    kernel = log_centered_kernel(r_max)
    nn = Polynomial.variable("n")
    series = exp_series(kernel * (nn - 1))
    entries = [series.coefficient(r) for r in range(r_max + 1)]
    entries = [e if isinstance(e, Polynomial) else Polynomial.const("n", e) for e in entries]
    return MomentVector("binomial", entries, family="domino", about_mean=True)


def board1n_binomial_moments(n: int, r_max: int) -> MomentVector:
    if n < 1:
        raise ValueError("need n >= 1")
    sym = board1n_binomial_moments_symbolic(r_max)
    return MomentVector(
        "binomial",
        [e.eval(n) for e in sym.entries],
        family="domino",
        params={"m": 1, "n": n},
        about_mean=True,
    )


def board1n_central_moments(n: int, r_max: int) -> MomentVector:
    return binomial_to_raw(board1n_binomial_moments(n, r_max))


def mgf_deviation_1n(n: int, t_values, dps: int = 50):
    """max |cosh(t/(2 sigma))^(n-1) - e^{t^2/2}| with sigma^2 = (n-1)/4.

    Raises SizeGuardError beyond MGF_GUARD.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    t_values = list(t_values)
    digits = mgf_digits(0, len(t_values), dps)
    rows = []
    sup = mpmath.mpf(0)
    with mpmath.workdps(digits):
        sigma = mpmath.sqrt(mpmath.mpf(n - 1)) / 2
        for t in t_values:
            tt = mpmath.mpmathify(t)
            target = mpmath.e ** (tt * tt / 2)
            phi = mpmath.cosh(tt / (2 * sigma)) ** (n - 1)
            dev = abs(phi - target)
            rows.append((tt, dev))
            sup = max(sup, dev)
    return sup, rows


def _check(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")


def _moments(kind: str, r_max: int, p: dict) -> tuple[MomentVector, list[str] | None]:
    """Exact moments; the mu-polynomial texts only where every order is exact."""
    m, n = p["m"], p["n"]
    if kind == "binomial":
        return raw_to_binomial(central_moments(m, n, r_max)), None
    vec = (raw_moments if kind == "raw" else central_moments)(m, n, r_max)
    if not in_closed_form_domain(m, n, r_max):
        return vec, None
    sym = (raw_moments_symbolic if kind == "raw" else central_moments_symbolic)(r_max)
    return vec, [e.to_text() for e in sym.entries]


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
    closed_pgf=_closed_pgf,
    enumerate=lambda p: (oracle.enumerate_boards(p["m"], p["n"]), {}),
    normality_grid=lambda p, r_max: central_moments(p["m"], p["n"], r_max),
)
