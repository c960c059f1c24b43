"""Inversion number and major index over random permutations.

The inversion PGF has the product form F_n(q) = (1/n!) prod (1-q^i)/(1-q):
by the inversion table, inv = U_1 + ... + U_n with U_i uniform on
{0, ..., i-1} and independent (Knuth, TAOCP 3 section 5.1.1).  Its
cumulants are therefore sums of theirs, kappa_k = B_k (S_k(n) - n) / k for
k >= 2 (B_k the Bernoulli numbers, zero for odd k, and S_k(n) = 1^k + ... +
n^k by Faulhaber's formula), and the central and binomial moments follow
from them at a cost that does not grow with n.

The paper's route, the recurrence of the centered Taylor coefficients
B_r(n) (binomial moments)

    B_r(n) - B_r(n-1) = sum_{s=1}^r p_s(n) B_{r-s}(n-1)

with p_i(n) = (1/n) sum_s (-1)^s C((n-3)/2 + s, s) C(n, i+1-s), a
polynomial in n, is kept as ``p_coefficient``; the tests step it as the
independent reference.

The MGF deviation costs n mpmath evaluations per t at its working
precision and is refused beyond ``common.MGF_GUARD``.

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
from momentforge.families.common import Family, count_pgf, mgf_digits, pgf_total
from momentforge.moment_algebra import MomentVector, binomial_to_raw, central_to_raw, raw_to_binomial
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
    mu, var = mean_variance_polynomials()
    return mu.eval(n), var.eval(n)


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


def binomial_moments(n: int, r_max: int) -> MomentVector:
    """Exact B_r(n) for r <= r_max, from the cumulants kappa_k of inv.

    kappa_k = B_k (S_k(n) - n) / k for even k >= 2 and 0 otherwise (see the
    module docstring); the central moments are
    mu_j = sum_{k=2}^{j} C(j-1, k-1) kappa_k mu_{j-k}.
    """
    if n < 1 or r_max < 0:
        raise ValueError("need n >= 1 and r_max >= 0")
    bern = [Fraction(*mpmath.bernfrac(j)) for j in range(r_max + 1)]
    kappa = [Fraction(0)] * (r_max + 1)
    for k in range(2, r_max + 1, 2):
        # Faulhaber: S_k(n) = sum_j (-1)^j C(k+1, j) B_j n^(k+1-j) / (k+1)
        power_sum = sum(
            (-1) ** j * math.comb(k + 1, j) * bern[j] * n ** (k + 1 - j) for j in range(k + 1)
        ) / (k + 1)
        kappa[k] = bern[k] * (power_sum - n) / k
    central = [Fraction(1)]
    for j in range(1, r_max + 1):
        central.append(
            sum((math.comb(j - 1, k - 1) * kappa[k] * central[j - k] for k in range(2, j + 1)), Fraction(0))
        )
    return raw_to_binomial(MomentVector("central", central, family="invmaj", params={"n": n}))


def central_moments(n: int, r_max: int) -> MomentVector:
    """Exact central moments E[(X-mu)^r] from the binomial moments."""
    return binomial_to_raw(binomial_moments(n, r_max))


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
    """max |G_n(e^{t/sigma}) - e^{t^2/2}| over the t grid.

    G_n(e^{t/sigma}) = (1/n!) prod_i sinh(i u)/sinh(u) with u = t/(2 sigma).
    Returns (sup, rows) where rows pair each t with its deviation.  Raises
    SizeGuardError beyond MGF_GUARD: each t takes n sinh and log evaluations.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    t_values = list(t_values)
    digits = mgf_digits(n, len(t_values), dps)
    _, var = mean_variance(n)
    rows = []
    sup = mpmath.mpf(0)
    with mpmath.workdps(digits):
        sigma = mpmath.sqrt(mpmath.mpf(var.numerator) / var.denominator)
        logfact = sum(mpmath.log(mpmath.mpf(i)) for i in range(2, n + 1))
        for t in t_values:
            tt = mpmath.mpmathify(t)
            target = mpmath.e ** (tt * tt / 2)
            if tt == 0:
                phi = mpmath.mpf(1)
            else:
                u = tt / (2 * sigma)
                logphi = -logfact - n * mpmath.log(mpmath.sinh(u))
                for i in range(1, n + 1):
                    logphi += mpmath.log(mpmath.sinh(i * u))
                phi = mpmath.e**logphi
            dev = abs(phi - target)
            rows.append((tt, dev))
            sup = max(sup, dev)
    return sup, rows


def _moments(kind: str, r_max: int, p: dict) -> tuple[MomentVector, None]:
    n = p["n"]
    if kind == "binomial":
        return binomial_moments(n, r_max), None
    central = central_moments(n, r_max)
    if kind == "central":
        return central, None
    mu, _ = mean_variance(n)
    return central_to_raw(central, mu), None


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
    moments=_moments,
    closed_pgf=lambda p: pgf(p["n"]),
    enumerate=_enumerate,
    normality_grid=lambda p, r_max: central_moments(p["n"], r_max),
)
