"""Inversion number and major index over random permutations.

The inversion PGF has the product form F_n(q) = (1/n!) prod (1-q^i)/(1-q):
by the inversion table, inv = U_1 + ... + U_n with U_i uniform on
{0, ..., i-1} and independent (Knuth, TAOCP 3 section 5.1.1).  Its
cumulants are therefore sums of theirs, kappa_k = B_k (S_k(n) - n) / k for
k >= 2 (B_k the Bernoulli numbers, zero for odd k, and S_k(n) = 1^k + ... +
n^k by Faulhaber's formula).  ``central_moments`` feeds them to the
shared cumulant route ``common.uniform_sum_moments``, at a cost that does
not grow with n.  They are the family's moment route; the raw and the
binomial moments are converted from them once, by ``families.moment_vector``.

The paper's route, the recurrence of the centered Taylor coefficients
B_r(n) (binomial moments)

    B_r(n) - B_r(n-1) = sum_{s=1}^r p_s(n) B_{r-s}(n-1)

with p_i(n) = (1/n) sum_s (-1)^s C((n-3)/2 + s, s) C(n, i+1-s), a
polynomial in n, is the tests' independent reference for these moments.

The MGF deviation evaluates this product at q = e^{2u} through its
geometric partial sums 1 + q + ... + q^(i-1) = e^{(i-1)u} sinh(iu)/sinh(u):
per t point two exponentials, about 2n products of plain Python integers
in fixed point (the running product kept as a mantissa of at most twice
the fixed-point bits and a binary exponent) and one division at the
working precision, with n! taken exactly once per call, in the shared
loop ``common.mgf_deviation``.  It is refused beyond ``common.MGF_GUARD``.

The generating function is computed as a row of integer counts: the
Mahonian row of inversion counts is built by prefix-sum convolution with
each factor 1 + q + ... + q^(i-1) (Stanley, EC1 section 1.3; Knuth, TAOCP 3
section 5.1.1), each new row the difference of two shifted copies of the
old row's prefix sums, taken list against list.  The PGF is that row over
n!, reduced only when printed.  The major index, equidistributed with inv
(MacMahon), is served by the oracle's joint histogram.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

import mpmath
from mpmath.libmp import to_fixed

from momentforge import oracle
from momentforge.families import common
from momentforge.families.common import Family, bernoulli, pgf_total, uniform_sum_moments
from momentforge.moment_algebra import MomentVector, raw_to_binomial
from momentforge.poly_series import Polynomial

__all__ = ["FAMILY", "pgf", "binomial_moments", "mgf_deviation"]


def pgf(n: int) -> Polynomial:
    """Probability generating function of the inversion number over S_n.

    Raises SizeGuardError beyond PGF_GUARD.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    total = pgf_total(n * (n - 1) // 2, lambda: math.factorial(n))
    return Polynomial("q", _mahonian_row(n), total)


def _mahonian_row(n: int) -> list[int]:
    """Permutations of S_n by inversion count: prod_{i<=n} (1 + ... + q^(i-1)).

    With P the prefix sums of the old row (P[0] = 0) and top its length,
    entry d of the new row is P[min(d+1, top)] - P[max(d+1-i, 0)]: the sums
    from P[1] on, padded with i - 1 copies of the last, less the sums from
    P[0] on, shifted right by i - 1.
    """
    row = [1]
    for i in range(2, n + 1):
        prefix = [0, *accumulate(row)]
        row = [a - b for a, b in zip(prefix[1:] + [prefix[-1]] * (i - 1), [0] * (i - 1) + prefix[:-1])]
    return row


def mean_variance(n: int) -> tuple[Fraction, Fraction]:
    """(mu, sigma^2) at n, from integers: n(n-1)/4 and n(n-1)(2n+5)/72."""
    pairs = n * (n - 1)
    return Fraction(pairs, 4), Fraction(pairs * (2 * n + 5), 72)


def _power_sum(k: int, n: int) -> Fraction:
    """S_k(n) = 1^k + ... + n^k by Faulhaber's formula."""
    return sum(
        (-1) ** j * math.comb(k + 1, j) * bernoulli(j) * n ** (k + 1 - j) for j in range(k + 1)
    ) / (k + 1)


def central_moments(n: int, r_max: int) -> MomentVector:
    """Exact central moments E[(X-mu)^r], r <= r_max, from the cumulants of inv.

    kappa_k = B_k (S_k(n) - n) / k for even k >= 2 and 0 otherwise (see the
    module docstring), by ``common.uniform_sum_moments``.
    """
    if n < 1 or r_max < 0:
        raise ValueError("need n >= 1 and r_max >= 0")
    entries = uniform_sum_moments(Fraction(0), lambda k: _power_sum(k, n) - n, r_max)
    return MomentVector("central", entries)


def binomial_moments(n: int, r_max: int) -> MomentVector:
    """Exact B_r(n) for r <= r_max, converted once from the central moments."""
    return raw_to_binomial(central_moments(n, r_max))


def mgf_deviation(n: int, t_values, dps: int = 50):
    """max |G_n(e^{t/sigma}) - e^{t^2/2}| over the t grid, by ``common.mgf_deviation``.

    With u = t/(2 sigma) and q = e^{2u}, the centered PGF is
    G_n(e^{t/sigma}) = e^{-u n(n-1)/2} (1/n!) prod_i s_i, where s_1 = 1 and
    s_i = 1 + q s_{i-1}; every factor is positive, so nothing cancels.  The
    inversion count is symmetric about its mean, so G_n is even in u and is
    read at u = -|u|, where q <= 1 and s_i <= i, once per |u|.

    The loop runs in plain Python integers, in fixed point with
    p = prec + 2 bit_length(n) + 16 fractional bits (prec the working
    precision): q = e^{2u} is computed at the working precision and
    converted once per t point, and each step is s <- 1 + (q s >> p) and
    product <- product s >> p.  The product is kept as a mantissa of at
    most 2p bits and a binary exponent, shifted down by p bits whenever it
    grows past that, so no integer grows with n and a step costs the same
    at every n.  Rounding: the truncated q and each truncated shift are off
    by at most 2^{-p}, so s_i is off by at most i 2^{1-p} relative and each
    of the n steps of the product adds at most 2^{1-p} more (its shift and
    a renormalisation); the product is off by at most (n^2 + 3n) 2^{-p} <
    2^{-prec-14} before its one rounding to the working precision, where it
    is divided by n! e^{u n(n-1)/2}.  n! is taken exactly once per call.

    Returns (sup, rows) where rows pair each t with its deviation.  Raises
    SizeGuardError beyond MGF_GUARD, which weighs a t point as ceil(n/2)
    evaluations.
    """
    if n < 2:
        raise ValueError("need n >= 2")

    def pgf_at():
        factorial = mpmath.mpf(math.factorial(n))
        degree = n * (n - 1) // 2
        bits = mpmath.mp.prec + 2 * n.bit_length() + 16
        one = 1 << bits
        limit = 2 * bits
        seen = {}  # G at -|u|: a grid symmetric in t reads each point twice

        def at(u):
            u = -abs(u)
            if u in seen:
                return seen[u]
            q = to_fixed(mpmath.exp(2 * u)._mpf_, bits)
            s = product = one
            exponent = -bits
            for _ in range(n - 1):
                s = one + ((q * s) >> bits)
                product = (product * s) >> bits
                if product.bit_length() > limit:
                    product >>= bits
                    exponent += bits
            seen[u] = mpmath.mpf((product, exponent)) / (factorial * mpmath.exp(degree * u))
            return seen[u]

        return at

    return common.mgf_deviation(mean_variance(n)[1], (n + 1) // 2, pgf_at, t_values, dps)


def _enumerate(p: dict) -> tuple[oracle.Histogram, dict]:
    joint = oracle.enumerate_permutations(p["n"])
    pairs = {f"{a},{b}": cnt for (a, b), cnt in sorted(joint.counts.items())}
    return joint.marginal_inv(), {"joint": pairs}


FAMILY = Family(
    name="invmaj",
    params=("n",),
    defaults={},
    space_size=lambda p: math.factorial(p["n"]),
    space_bits=lambda p: math.lgamma(p["n"] + 1) / math.log(2),
    max_order=lambda p: None,
    moments=lambda r_max, p: central_moments(p["n"], r_max),
    mean=lambda p: mean_variance(p["n"])[0],
    closed_pgf=lambda p: pgf(p["n"]),
    enumerate=_enumerate,
    mgf=lambda p, t_values, dps: mgf_deviation(p["n"], t_values, dps),
)
