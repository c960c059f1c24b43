"""Inversion number and major index over random permutations.

The inversion PGF has the product form F_n(q) = (1/n!) prod (1-q^i)/(1-q);
its centered Taylor coefficients B_r(n) (binomial moments) satisfy

    B_r(n) - B_r(n-1) = sum_{s=1}^r p_s(n) B_{r-s}(n-1)

with p_i(n) = (1/n) sum_s (-1)^s C((n-3)/2 + s, s) C(n, i+1-s), a
polynomial in n.  So B_r is itself a polynomial in n, of degree at most
floor(3r/2) (3 floor(r/2) in fact; see ``binomial_moment_polynomials``).
The recurrence's values at n = 1 .. floor(3r/2) + 2 give it by forward
differences, the last point checked exactly; it is cached per r_max and
evaluated at n, so large n costs no more than small n.  Below that many
points the recurrence values are returned directly.

The MGF deviation costs n mpmath evaluations per t and is refused beyond
MGF_GUARD on n * len(t_values).

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
from itertools import accumulate, islice, zip_longest

import mpmath

from momentforge import oracle
from momentforge.errors import ConsistencyError, SizeGuardError
from momentforge.exact_core import falling_factorial
from momentforge.families.common import Family, count_pgf, pgf_total
from momentforge.moment_algebra import MomentVector, binomial_to_raw, central_to_raw
from momentforge.poly_series import Polynomial

__all__ = [
    "pgf",
    "mean_variance_polynomials",
    "mean_variance",
    "p_coefficient",
    "binomial_moments",
    "binomial_moment_polynomials",
    "newton_coefficients",
    "central_moments",
    "maj_table",
    "maj_generating_function",
    "maj_pgf",
    "mgf_deviation",
    "MGF_GUARD",
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
    """Exact B_r(n) for r <= r_max.

    Up to n = floor(3 r_max / 2) + 2 the per-m recurrence gives the values
    directly: deriving the polynomials steps it that far anyway.  Past that
    the cached polynomials B_r in Q[n] (``binomial_moment_polynomials``) are
    evaluated at n, at a cost that does not grow with n.
    """
    if n < 1 or r_max < 0:
        raise ValueError("need n >= 1 and r_max >= 0")
    if n <= _degree_bound(r_max) + 2:
        values = next(islice(_recurrence(r_max), n - 1, None))
    else:
        polys = binomial_moment_polynomials(r_max)
        basis = [math.comb(n - 1, k) for k in range(_degree_bound(r_max) + 1)]
        values = [sum((d * c for d, c in zip(coeffs, basis)), Fraction(0)) for coeffs in polys]
    return MomentVector(
        "binomial", values, family="invmaj", params={"n": n}, about_mean=True
    )


def _degree_bound(r: int) -> int:
    """floor(3r/2), the bound on deg B_r proved in ``binomial_moment_polynomials``."""
    return 3 * r // 2


@lru_cache(maxsize=None)
def binomial_moment_polynomials(r_max: int) -> tuple[tuple[Fraction, ...], ...]:
    """B_0, ..., B_{r_max} in Q[n], each as Newton coefficients (d_0, ..., d_D).

    B_r(n) = sum_k d_k C(n - 1, k), valid for every n >= 1.

    Degree bound.  p_s has degree <= s in n: each term of its defining sum
    has degree s + 1 before the division by n.  B_0 = 1 and B_1 = 0, so by
    induction the increment B_r(m) - B_r(m - 1) = sum_{s=2}^{r} p_s(m)
    B_{r-s}(m - 1) has degree <= max_s s + floor(3(r - s)/2)
    = floor((3r - 2)/2) = floor(3r/2) - 1, and summing it over m = 2..n
    raises the degree by one: deg B_r <= floor(3r/2).  (The degrees are in
    fact 3 floor(r/2): p_s has degree s - 1 for odd s.)

    The coefficients are the forward differences of the recurrence's values
    at n = 1 .. floor(3 r_max / 2) + 2, one point more than the bound needs;
    ``newton_coefficients`` checks that point exactly.
    """
    rows = list(islice(_recurrence(r_max), _degree_bound(r_max) + 2))
    return tuple(
        newton_coefficients([row[r] for row in rows[: _degree_bound(r) + 2]], _degree_bound(r))
        for r in range(r_max + 1)
    )


def newton_coefficients(values: list[Fraction], degree: int) -> tuple[Fraction, ...]:
    """(Delta^0 y(1), ..., Delta^degree y(1)) from y(1), ..., y(degree + 2).

    The last value is the check point: a polynomial of degree <= ``degree``
    has a vanishing difference of order degree + 1.  Raises
    ConsistencyError when it does not vanish, and trailing zero
    differences are dropped.
    """
    if len(values) != degree + 2:
        raise ValueError(f"need degree + 2 = {degree + 2} values, got {len(values)}")
    diffs = []
    row = list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    if diffs[-1]:
        raise ConsistencyError(
            f"values do not fit a polynomial of degree {degree}: "
            f"difference of order {degree + 1} is {diffs[-1]}"
        )
    while diffs and not diffs[-1]:
        diffs.pop()
    return tuple(diffs)


def _recurrence(r_max: int):
    """[B_0(m), ..., B_{r_max}(m)] for m = 1, 2, 3, ... (endless).

    Seeded with B_0 = 1 and B_1 = 0 at m = 1 (the PGF of S_1 is constant);
    p_1 = 0 identically, so B_1 stays 0.  Each p_s(m) is evaluated in
    integers over one denominator.
    """
    ps = [_integer_form(s) for s in range(r_max + 1)]
    current = [Fraction(1), *[Fraction(0)] * r_max]
    m = 1
    while True:
        yield current
        m += 1
        pvals = [Fraction(_horner(nums, m), den) for nums, den in ps]
        current = current[:2] + [
            current[r] + sum(pvals[s] * current[r - s] for s in range(2, r + 1))
            for r in range(2, r_max + 1)
        ]


@lru_cache(maxsize=None)
def _integer_form(s: int) -> tuple[tuple[int, ...], int]:
    """p_s as (integer coefficients, denominator)."""
    coeffs = p_coefficient(s).coeffs
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


def _horner(coeffs: tuple[int, ...], x: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


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


# Bound on n * len(t_values) for mgf_deviation, which takes n mpmath sinh
# and log evaluations per t.  At the default 50 digits the last request
# inside it (n = 11764 with 17 steps) takes about 2 s on one Intel Xeon core.
MGF_GUARD = 2 * 10**5


def mgf_deviation(n: int, t_values, dps: int = 50):
    """max |G_n(e^{t/sigma}) - e^{t^2/2}| over the t grid.

    G_n(e^{t/sigma}) = (1/n!) prod_i sinh(i u)/sinh(u) with u = t/(2 sigma).
    Returns (sup, rows) where rows pair each t with its deviation.  Raises
    SizeGuardError when n * len(t_values) exceeds MGF_GUARD.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    t_values = list(t_values)
    if n * len(t_values) > MGF_GUARD:
        raise SizeGuardError(
            f"n * t_steps = {n * len(t_values)} is beyond the MGF_GUARD = {MGF_GUARD} size guard"
        )
    _, var = mean_variance(n)
    rows = []
    sup = mpmath.mpf(0)
    with mpmath.workdps(max(dps, 50)):
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
    max_order=lambda p: None,
    moments=_moments,
    closed_pgf=lambda p: pgf(p["n"]),
    enumerate=_enumerate,
    normality_grid=lambda p, r_max: central_moments(p["n"], r_max),
)
