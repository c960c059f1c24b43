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
polynomial in n, is kept as ``p_coefficient``; the tests step it as the
independent reference.

The MGF deviation evaluates this product at q = e^{2u} through its
geometric partial sums 1 + q + ... + q^(i-1) = e^{(i-1)u} sinh(iu)/sinh(u):
two exponentials and about 2n multiply-adds per t at the working
precision, with n! taken exactly once per call, in the shared loop
``common.mgf_deviation``.  It is refused beyond ``common.MGF_GUARD``.

The major index is handled by the F(n, i) table of generating functions
of permutations ending in i, which also yields the MacMahon
equidistribution check.

Both generating functions are computed as rows of integer counts: the
Mahonian row of inversion counts is built by prefix-sum convolution with
each factor 1 + q + ... + q^(i-1) (Stanley, EC1 section 1.3; Knuth, TAOCP 3
section 5.1.1), and each F(n, i) is an integer row built from prefix and
suffix sums of rows.  The PGF divides the row by n! once per coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, zip_longest

import mpmath

from momentforge import oracle
from momentforge.exact_core import falling_factorial
from momentforge.families import common
from momentforge.families.common import Family, bernoulli, count_pgf, pgf_total, uniform_sum_moments
from momentforge.moment_algebra import MomentVector, raw_to_binomial
from momentforge.poly_series import Polynomial

__all__ = [
    "pgf",
    "mean_variance_polynomials",
    "mean_variance",
    "p_coefficient",
    "binomial_moments",
    "central_moments",
    "maj_table",
    "maj_generating_function",
    "maj_pgf",
    "mgf_deviation",
]


def pgf(n: int) -> Polynomial:
    """Probability generating function of the inversion number over S_n.

    Raises SizeGuardError beyond PGF_GUARD.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    total = pgf_total(n * (n - 1) // 2, lambda: math.factorial(n))
    return count_pgf(_mahonian_row(n), total)


def _mahonian_row(n: int) -> list[int]:
    """Permutations of S_n by inversion count: prod_{i<=n} (1 + ... + q^(i-1))."""
    row = [1]
    for i in range(2, n + 1):
        prefix = [0, *accumulate(row)]
        top = len(row)
        row = [prefix[min(d + 1, top)] - prefix[max(d + 1 - i, 0)] for d in range(top + i - 1)]
    return row


def mean_variance_polynomials() -> tuple[Polynomial, Polynomial]:
    """(mu, sigma^2) as polynomials in n: n(n-1)/4 and n(n-1)(2n+5)/72."""
    nn = Polynomial.variable("n")
    mu = nn * (nn - 1) / 4
    var = nn * (nn - 1) * (2 * nn + 5) / 72
    return mu, var


def mean_variance(n: int) -> tuple[Fraction, Fraction]:
    """(mu, sigma^2) at n, from integers: n(n-1)/4 and n(n-1)(2n+5)/72."""
    pairs = n * (n - 1)
    return Fraction(pairs, 4), Fraction(pairs * (2 * n + 5), 72)


@lru_cache(maxsize=None)
def p_coefficient(i: int) -> Polynomial:
    """Coefficient p_i(n) of z^i in P(n, z), exactly, as a polynomial in n."""
    if i < 0:
        raise ValueError("need i >= 0")
    nn = Polynomial.variable("n")
    acc = Polynomial("n", ())
    for s in range(i + 1):
        alpha = (nn - 3) / 2 + s
        upper = falling_factorial(alpha, s) * Fraction(1, math.factorial(s))
        j = i + 1 - s
        lower = falling_factorial(nn, j) * Fraction(1, math.factorial(j))
        term = upper * lower
        acc = acc + (term if s % 2 == 0 else -term)
    return acc.divide_by_symbol()


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


def maj_table(n: int) -> list[Polynomial]:
    """[F(n,1), ..., F(n,n)]: maj generating functions by final entry.

    F(n,i) = sum_{j<i} F(n-1,j) + q^{n-1} sum_{j>=i} F(n-1,j), F(1,1) = 1.
    """
    return [Polynomial("q", row) for row in _maj_rows(n)]


def _maj_rows(n: int) -> list[list[int]]:
    """maj_table(n) as integer coefficient rows."""
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


def maj_generating_function(n: int) -> Polynomial:
    """H_n(q) = sum over S_n of q^maj = F(n+1, n+1)."""
    return Polynomial("q", _maj_rows(n + 1)[-1])


def maj_pgf(n: int) -> Polynomial:
    return count_pgf(_maj_rows(n + 1)[-1], math.factorial(n))


def mgf_deviation(n: int, t_values, dps: int = 50):
    """max |G_n(e^{t/sigma}) - e^{t^2/2}| over the t grid, by ``common.mgf_deviation``.

    With u = t/(2 sigma) and q = e^{2u}, the centered PGF is
    G_n(e^{t/sigma}) = e^{-u n(n-1)/2} (1/n!) prod_i s_i, where s_1 = 1 and
    s_i = 1 + q s_{i-1}; every factor is positive, so nothing cancels.  n! is
    taken exactly once per call.  Returns (sup, rows) where rows pair each t
    with its deviation.  Raises SizeGuardError beyond MGF_GUARD: each t
    takes about 2n multiply-adds, weighed as ceil(n/2) evaluations (they
    cost about 0.4 evaluations per n).
    """
    if n < 2:
        raise ValueError("need n >= 2")

    def pgf_at():
        factorial = mpmath.mpf(math.factorial(n))
        degree = n * (n - 1) // 2

        def at(u):
            q = mpmath.exp(2 * u)
            s = product = mpmath.mpf(1)
            for _ in range(n - 1):
                s = 1 + q * s
                product *= s
            return product / (factorial * mpmath.exp(degree * u))

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
