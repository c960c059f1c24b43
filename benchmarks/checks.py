"""Output checks computed apart from the program.

Every check takes the parsed ``result`` object of one CLI output and the
job's own parameters, and returns a list of error strings (empty when the
output is right).  The expected values come from independent mathematics:
Mahonian rows by integer prefix sums, binomial coefficients, cumulants of
sums of independent variables, and direct sums over pairs of index sets.
Nothing here imports momentforge, and nothing compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import decimal
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

# -- parsing -----------------------------------------------------------------


def rat(text) -> Fraction:
    """Parse an exact rational "p/q" (or a decimal string) into a Fraction."""
    return Fraction(str(text))


def parse_polynomial(text: str, symbol: str) -> dict[int, Fraction]:
    """Parse canonical polynomial text ("3/4*q^2 - q + 1/2") into {degree: coefficient}."""
    out: dict[int, Fraction] = {}
    text = text.strip()
    if text == "0":
        return out
    tokens = text.replace(" - ", " + -").split(" + ")
    for token in tokens:
        sign = 1
        if token.startswith("-"):
            sign, token = -1, token[1:]
        if "*" in token:
            coef_text, mono = token.split("*", 1)
            coef = rat(coef_text)
        elif token.startswith(symbol):
            coef, mono = Fraction(1), token
        else:
            coef, mono = rat(token), ""
        if mono == "":
            degree = 0
        elif mono == symbol:
            degree = 1
        elif mono.startswith(symbol + "^"):
            degree = int(mono[len(symbol) + 1 :])
        else:
            raise ValueError(f"unexpected monomial {mono!r} in polynomial text")
        if degree in out:
            raise ValueError(f"degree {degree} appears twice in polynomial text")
        out[degree] = sign * coef
    return out


def poly_eval(coeffs: dict[int, Fraction], x) -> Fraction:
    return sum((c * Fraction(x) ** d for d, c in coeffs.items()), Fraction(0))


def close(got: Fraction, want: Fraction, rel: Fraction) -> bool:
    """|got - want| <= rel * max(|want|, 1e-30)."""
    return abs(got - want) <= rel * max(abs(want), Fraction(1, 10**30))


# -- independent mathematics --------------------------------------------------


def mahonian_counts(n: int) -> list[int]:
    """Counts of permutations of n by inversions: prod (1 + q + ... + q^(i-1))."""
    row = [1]
    for i in range(2, n + 1):
        prefix = [0]
        for c in row:
            prefix.append(prefix[-1] + c)
        size = len(row) + i - 1
        new = []
        for d in range(size):
            hi = min(d, len(row) - 1)
            lo = d - i + 1
            new.append(prefix[hi + 1] - prefix[max(lo, 0)])
        row = new
    return row


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """B_m from sum_{j<=m} C(m+1, j) B_j = 0, B_0 = 1."""
    if m == 0:
        return Fraction(1)
    return -sum(math.comb(m + 1, j) * bernoulli(j) for j in range(m)) / (m + 1)


def moments_from_cumulants(kappa: list[Fraction]) -> list[Fraction]:
    """Moments m_0..m_R from cumulants kappa_1..kappa_R (kappa[0] ignored).

    m_r = sum_{j=1}^{r} C(r-1, j-1) kappa_j m_{r-j}; with kappa_1 = 0 these
    are central moments.
    """
    m = [Fraction(1)]
    for r in range(1, len(kappa)):
        m.append(sum(math.comb(r - 1, j - 1) * kappa[j] * m[r - j] for j in range(1, r + 1)))
    return m


def cumulants_from_moments(m: list[Fraction]) -> list[Fraction]:
    kappa = [Fraction(0)]
    for r in range(1, len(m)):
        kappa.append(m[r] - sum(math.comb(r - 1, j - 1) * kappa[j] * m[r - j] for j in range(1, r)))
    return kappa


def invmaj_cumulants(n: int, r_max: int) -> list[Fraction]:
    """Cumulants of inv = sum_k U_k with U_k uniform on {0..k-1}.

    kappa_1 = n(n-1)/4, kappa_{2j} = B_{2j} sum_k (k^{2j} - 1) / (2j), odd
    cumulants from order 3 vanish.
    """
    kappa = [Fraction(0)] * (r_max + 1)
    if r_max >= 1:
        kappa[1] = Fraction(n * (n - 1), 4)
    for r in range(2, r_max + 1, 2):
        kappa[r] = bernoulli(r) * sum(k**r - 1 for k in range(1, n + 1)) / r
    return kappa


def invmaj_central(n: int, r_max: int) -> list[Fraction]:
    kappa = invmaj_cumulants(n, r_max)
    if r_max >= 1:
        kappa[1] = Fraction(0)
    return moments_from_cumulants(kappa)


def falling_factorial_coefficients(r: int) -> list[int]:
    """Coefficients of x(x-1)...(x-r+1) in powers of x (signed Stirling numbers)."""
    coeffs = [1]
    for j in range(r):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= j * c
        coeffs = nxt
    return coeffs


def binomial_from_power(power: list[Fraction]) -> list[Fraction]:
    """E[C(Y, r)] = E[(Y)_r] / r! from power moments E[Y^k]."""
    out = []
    for r in range(len(power)):
        coeffs = falling_factorial_coefficients(r)
        out.append(sum(c * power[k] for k, c in enumerate(coeffs)) / math.factorial(r))
    return out


def central_from_raw(raw: list[Fraction]) -> list[Fraction]:
    mu = raw[1]
    return [
        sum(math.comb(r, i) * raw[i] * (-mu) ** (r - i) for i in range(r + 1))
        for r in range(len(raw))
    ]


def binomial_half_central(count: int, r_max: int) -> list[Fraction]:
    """Central moments of Bin(count, 1/2) from count times the Bernoulli(1/2) cumulants."""
    bern = [Fraction(1)] + [Fraction(1, 2)] * r_max
    kappa = [count * k for k in cumulants_from_moments(bern)]
    kappa[1] = Fraction(0)
    return moments_from_cumulants(kappa)


def domino_slots(m: int, n: int) -> int:
    return m * (n - 1) + n * (m - 1)


def domino_fourth_central(m: int, n: int) -> Fraction:
    a = domino_slots(m, n)
    return Fraction(3 * a * a - 2 * a + 24 * (m - 1) * (n - 1), 16)


def schur_index_sets(n: int) -> list[int]:
    """Bitmasks of the element sets {x, y, x+y} within [1, n], x <= y."""
    sets = []
    for x in range(1, n + 1):
        for y in range(x, n + 1 - x):
            sets.append((1 << x) | (1 << y) | (1 << (x + y)))
    return sets


def subcube_index_sets(n: int, k: int) -> list[int]:
    """Vertex bitmasks of the k-dimensional subcubes of the n-cube."""
    sets = []
    for free in combinations(range(n), k):
        fixed = [i for i in range(n) if i not in free]
        for bits in range(1 << len(fixed)):
            base = sum(1 << c for j, c in enumerate(fixed) if bits >> j & 1)
            mask = 0
            for corner in range(1 << k):
                vertex = base | sum(1 << c for j, c in enumerate(free) if corner >> j & 1)
                mask |= 1 << vertex
            sets.append(mask)
    return sets


def pair_sum_moments(sets: list[int], colors: int) -> tuple[Fraction, Fraction]:
    """E[X] and E[X^2] for X = number of index sets whose cells share one colour.

    A set of s cells is monochromatic with probability colors^(1-s).  The
    sum runs over every ordered pair of sets, the diagonal included: a pair
    that shares a cell is monochromatic with probability colors^(1-u), u the
    size of the union, and a disjoint pair multiplies.
    """
    sizes = [s.bit_count() for s in sets]
    singles = Counter(sizes)
    joined: Counter = Counter()
    apart: Counter = Counter()
    for sa, za in zip(sets, sizes):
        for sb, zb in zip(sets, sizes):
            if sa & sb:
                joined[(sa | sb).bit_count()] += 1
            else:
                apart[za + zb] += 1
    e1 = sum((Fraction(k, colors ** (z - 1)) for z, k in singles.items()), Fraction(0))
    e2 = sum((Fraction(k, colors ** (u - 1)) for u, k in joined.items()), Fraction(0))
    e2 += sum((Fraction(k, colors ** (z - 2)) for z, k in apart.items()), Fraction(0))
    return e1, e2


def contained_set_moments(sets: list[int]) -> tuple[Fraction, Fraction]:
    """E[X] and E[X^2] for X = number of index sets inside a uniform random subset."""
    singles = Counter(s.bit_count() for s in sets)
    unions = Counter((sa | sb).bit_count() for sa in sets for sb in sets)
    e1 = sum((Fraction(k, 2**z) for z, k in singles.items()), Fraction(0))
    e2 = sum((Fraction(k, 2**u) for u, k in unions.items()), Fraction(0))
    return e1, e2


@lru_cache(maxsize=None)
def schur_second_moment(n: int, colors: int) -> Fraction:
    return pair_sum_moments(schur_index_sets(n), colors)[1]


def histogram_raw(hist: dict[int, int], total: int, r_max: int) -> list[Fraction]:
    return [
        Fraction(sum(v**r * c for v, c in hist.items()), total) for r in range(r_max + 1)
    ]


# -- shared pieces of checks ---------------------------------------------------


def _entries(result: dict, key: str) -> list[Fraction]:
    return [rat(e) for e in result[key]]


def _compare_lists(label: str, got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} entries, expected {len(want)}"]
    return [
        f"{label}[{i}] = {g}, expected {w}" for i, (g, w) in enumerate(zip(got, want)) if g != w
    ][:3]


def _pgf_text_matches(result: dict) -> list[str]:
    coeffs = _entries(result, "coefficients")
    parsed = parse_polynomial(result["polynomial"], "q")
    dense = [parsed.get(d, Fraction(0)) for d in range(max(parsed, default=-1) + 1)]
    while len(dense) < len(coeffs):
        dense.append(Fraction(0))
    return _compare_lists("polynomial text vs coefficients", dense, coeffs)


def _domino_distribution(label: str, m: int, n: int, central: list[Fraction]) -> list[str]:
    """Mean-centred moments of a domino count: Var = A/4, odd orders 0, fourth by formula."""
    errors = []
    a = domino_slots(m, n)
    if len(central) > 2 and central[2] != Fraction(a, 4):
        errors.append(f"{label}: variance {central[2]}, expected A/4 = {Fraction(a, 4)}")
    for r in range(1, len(central), 2):
        if central[r] != 0:
            errors.append(f"{label}: odd central moment {r} is {central[r]}, expected 0")
    if len(central) > 4 and central[4] != domino_fourth_central(m, n):
        errors.append(
            f"{label}: fourth central moment {central[4]}, expected {domino_fourth_central(m, n)}"
        )
    return errors


def _histogram(result: dict) -> tuple[dict[int, int], int, list[str]]:
    hist = {int(v): int(c) for v, c in result["histogram"].items()}
    total = int(result["total"])
    errors = []
    if sum(hist.values()) != total:
        errors.append(f"histogram counts sum to {sum(hist.values())}, total says {total}")
    if any(c <= 0 for c in hist.values()):
        errors.append("histogram holds a non-positive count")
    return hist, total, errors


def _oracle_moments_match(result: dict, hist: dict[int, int], total: int, r_max: int) -> list[str]:
    return _compare_lists(
        "oracle moments vs histogram", _entries(result, "moments"), histogram_raw(hist, total, r_max)
    )


def _params(result: dict, expected: dict) -> list[str]:
    if result.get("params") != expected:
        return [f"params {result.get('params')}, expected {expected}"]
    return []


# -- checks, one per kind of job ------------------------------------------------


def check_pgf_invmaj(result: dict, n: int) -> list[str]:
    counts = mahonian_counts(n)
    total = math.factorial(n)
    want = [Fraction(c, total) for c in counts]
    return (
        _params(result, {"n": n})
        + _compare_lists("invmaj pgf vs Mahonian row", _entries(result, "coefficients"), want)
        + _pgf_text_matches(result)
    )


def _binomial_row(count: int) -> list[Fraction]:
    return [Fraction(math.comb(count, d), 2**count) for d in range(count + 1)]


def check_pgf_boolean(result: dict, n: int) -> list[str]:
    return (
        _params(result, {"n": n, "k": 0})
        + _compare_lists(
            "boolean pgf vs C(2^n, d)/2^(2^n)", _entries(result, "coefficients"), _binomial_row(2**n)
        )
        + _pgf_text_matches(result)
    )


def check_pgf_domino_row(result: dict, n: int) -> list[str]:
    """A 1-by-n board has n-1 independent slots: coefficients C(n-1, d)/2^(n-1)."""
    return (
        _params(result, {"m": 1, "n": n})
        + _compare_lists(
            "1-by-n domino pgf vs C(n-1, d)/2^(n-1)",
            _entries(result, "coefficients"),
            _binomial_row(n - 1),
        )
        + _pgf_text_matches(result)
    )


def check_pgf_domino_board(result: dict, m: int, n: int) -> list[str]:
    coeffs = _entries(result, "coefficients")
    errors = _params(result, {"m": m, "n": n}) + _pgf_text_matches(result)
    if sum(coeffs) != 1:
        errors.append(f"pgf coefficients sum to {sum(coeffs)}")
    a = domino_slots(m, n)
    if len(coeffs) != a + 1 or any(coeffs[d] != coeffs[a - d] for d in range(len(coeffs))):
        errors.append("domino pgf is not symmetric about A/2")
    raw = [sum(c * d**r for d, c in enumerate(coeffs)) for r in range(5)]
    if raw[1] != Fraction(a, 2):
        errors.append(f"domino pgf mean {raw[1]}, expected A/2 = {Fraction(a, 2)}")
    return errors + _domino_distribution("domino pgf", m, n, central_from_raw(raw))


def check_approx_h_k0(result: dict, n: int) -> list[str]:
    count = 2**n
    errors = _compare_lists(
        "approx-h probabilities vs C(2^n, d)/2^(2^n)",
        _entries(result, "probabilities"),
        _binomial_row(count),
    )
    expected = {
        "p": Fraction(1),
        "mean": Fraction(count, 2),
        "mean_closed_form": Fraction(count, 2),
        "exact_mean": Fraction(count, 2),
        "second_factorial": Fraction(count * (count - 1), 4),
        "variance": Fraction(count, 4),
    }
    for key, want in expected.items():
        if rat(result[key]) != want:
            errors.append(f"approx-h {key} = {result[key]}, expected {want}")
    parsed = parse_polynomial(result["polynomial"], "q")
    probs = _entries(result, "probabilities")
    if any(parsed.get(d, 0) != p for d, p in enumerate(probs)) or max(parsed) >= len(probs):
        errors.append("approx-h polynomial text disagrees with its probabilities")
    return errors


def check_domino_raw(result: dict, m: int, n: int, r: int) -> list[str]:
    raw = _entries(result, "entries")
    errors = _params(result, {"m": m, "n": n})
    if len(raw) != r + 1:
        return errors + [f"{len(raw)} raw moments, expected {r + 1}"]
    a = domino_slots(m, n)
    if raw[0] != 1 or raw[1] != Fraction(a, 2):
        errors.append(f"domino raw moments start {raw[:2]}, expected [1, A/2 = {Fraction(a, 2)}]")
    space = 2 ** (m * n)
    if rat(result["sample_space_size"]) != space:
        errors.append("sample_space_size is not 2^(mn)")
    scaled = _entries(result, "scaled_entries")
    if scaled != [e * space for e in raw] or any(s.denominator != 1 for s in scaled):
        errors.append("scaled_entries are not the integers 2^(mn) E[X^r]")
    return errors + _domino_distribution("domino raw", m, n, central_from_raw(raw))


def check_domino_central(result: dict, m: int, n: int, r: int) -> list[str]:
    central = _entries(result, "entries")
    errors = _params(result, {"m": m, "n": n})
    if len(central) != r + 1 or central[0] != 1:
        return errors + [f"central moments {central[:2]}..., expected {r + 1} entries from 1"]
    return errors + _domino_distribution("domino central", m, n, central)


def _decimal_close(label: str, text: str, want: Fraction, rel=Fraction(1, 10**14)) -> list[str]:
    got = rat(text)
    if not close(got, want, rel):
        return [f"{label} = {text}, expected {float(want)!r}"]
    return []


def _normality_rows(
    result: dict, family: str, params: dict, grid: list[int], r_max: int, central_at
) -> list[str]:
    """Normalized moments where the exact value is known, targets, deviations and verdicts."""
    errors = []
    if result["family"] != family or result["params"] != params:
        errors.append(f"normality report for {result['family']} {result['params']}")
    rows = result["rows"]
    keys = [(row["n"], row["r"]) for row in rows]
    if keys != [(n, r) for n in grid for r in range(r_max + 1)]:
        return errors + ["normality rows do not cover the grid in order"]
    threshold = Fraction(str(result["threshold"]))
    devs: dict[int, list[Fraction]] = {}
    for row in rows:
        n, r = row["n"], row["r"]
        target = Fraction(math.prod(range(r - 1, 0, -2))) if r % 2 == 0 else Fraction(0)
        if rat(row["target"]) != target:
            errors.append(f"target for r={r} is {row['target']}, expected {target}")
        central = central_at(n)
        dev = rat(row["deviation"])
        if central[r] is not None:
            want = central[r] / central[2] ** (r // 2) if r % 2 == 0 else Fraction(0)
            errors += _decimal_close(f"m_{r} at n={n}", row["m_r"], want)
            errors += _decimal_close(f"deviation r={r} n={n}", row["deviation"], abs(want - target))
        elif abs(dev - abs(rat(row["m_r"]) - target)) > max(abs(rat(row["m_r"])), 1) / 10**15:
            errors.append(f"deviation r={r} n={n} is not |m_r - target|")
        devs.setdefault(r, []).append(dev)
    for r, d in devs.items():
        want = bool(d[-1] < threshold and d[-3] >= d[-2] >= d[-1])
        if result["verdicts"].get(str(r)) is not want:
            errors.append(f"verdict for r={r} is {result['verdicts'].get(str(r))}, expected {want}")
    return errors


def check_normality_domino(result: dict, m: int, grid: list[int], r: int) -> list[str]:
    def central_at(n):
        out: list = [Fraction(1), Fraction(0), Fraction(domino_slots(m, n), 4), Fraction(0)]
        out.append(domino_fourth_central(m, n))
        out += [Fraction(0) if q % 2 else None for q in range(5, r + 1)]
        return out

    return _normality_rows(result, "domino", {"m": m}, grid, r, central_at)


def check_normality_invmaj(result: dict, grid: list[int], r: int) -> list[str]:
    return _normality_rows(result, "invmaj", {}, grid, r, lambda n: invmaj_central(n, r))


def check_binomial_invmaj(result: dict, n: int, r: int) -> list[str]:
    want = binomial_from_power(invmaj_central(n, r))
    errors = _params(result, {"n": n})
    if result["kind"] != "binomial" or result["about_mean"] is not True:
        errors.append("invmaj binomial moments are not centred binomial moments")
    return errors + _compare_lists(
        "invmaj binomial moments vs cumulants", _entries(result, "entries"), want
    )


def check_central_boolean(result: dict, n: int, r: int) -> list[str]:
    want = binomial_half_central(2**n, r)
    errors = _params(result, {"n": n, "k": 0})
    errors += _compare_lists(
        "boolean central moments vs Bin(2^n, 1/2) cumulants", _entries(result, "entries"), want
    )
    forms = result.get("closed_forms", [])
    values = [poly_eval(parse_polynomial(t, "W"), 2**n) for t in forms]
    return errors + _compare_lists("boolean closed forms at W = 2^n", values, want)


def _invmaj_mgf_deviation(n: int, t: Fraction, terms: int = 14) -> decimal.Decimal:
    """|E[exp(t (X - mu) / sigma)] - e^{t^2/2}| from the invmaj cumulant series."""
    kappa = invmaj_cumulants(n, 2 * terms)
    var = kappa[2]
    tail = sum(
        (kappa[2 * j] * t ** (2 * j) / (var**j * math.factorial(2 * j)) for j in range(2, terms + 1)),
        Fraction(0),
    )
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        half_t2 = decimal.Decimal(t.numerator) ** 2 / decimal.Decimal(t.denominator) ** 2 / 2
        r = decimal.Decimal(tail.numerator) / decimal.Decimal(tail.denominator)
        return abs(half_t2.exp() * ((r).exp() - 1))


def check_mgf_invmaj(result: dict, n: int, steps: int, lo=Fraction(-2), hi=Fraction(2)) -> list[str]:
    errors = []
    rows = result["rows"]
    ts = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    if result["n"] != n or len(rows) != steps:
        return [f"mgf-limit for n={result['n']} with {len(rows)} rows, expected n={n}, {steps}"]
    rel = Fraction(1, 10**8)
    devs, wants = [], []
    for row, t in zip(rows, ts):
        if rat(row["t"]) != t:
            errors.append(f"t = {row['t']}, expected {t}")
        wants.append(Fraction(_invmaj_mgf_deviation(n, t)))
        devs.append(rat(row["deviation"]))
        if not close(devs[-1], wants[-1], rel):
            errors.append(f"deviation at t={t}: {row['deviation']}, cumulant series {float(wants[-1])!r}")
    sup = rat(result["sup_deviation"])
    if not close(sup, max(wants), rel):
        errors.append(f"sup_deviation {result['sup_deviation']} disagrees with the cumulant series")
    if sup != max(devs):
        errors.append("sup_deviation is not the largest row deviation")
    return errors


def check_fit_schur(result: dict, c: int, n_min: int, n_max: int, check_to: int = 40) -> list[str]:
    errors = []
    branches = [parse_polynomial(b["polynomial"], "n") for b in result["branches"]]
    if [b["residue"] for b in result["branches"]] != list(range(len(branches))) or not branches:
        return ["fit branches are not numbered 0..period-1"]
    period = len(branches)
    lead = Fraction(1, 16 * c**4)
    for j, b in enumerate(branches):
        if max(b) != 4 or b[4] != lead:
            errors.append(f"branch {j}: n^4 coefficient {b.get(4)}, expected 1/(16c^4) = {lead}")
    if result["provenance"]["sample_range"] != [n_min, n_max]:
        errors.append(f"sample_range {result['provenance']['sample_range']}")
    for n in range(n_min, min(n_max, check_to) + 1):
        got = poly_eval(branches[n % period], n)
        want = schur_second_moment(n, c)
        if got != want:
            errors.append(f"fit at n={n}: {got}, pair sum {want}")
    return errors[:5]


def check_oracle_domino(result: dict, m: int, n: int, r: int) -> list[str]:
    hist, total, errors = _histogram(result)
    errors += _params(result, {"m": m, "n": n})
    if total != 2 ** (m * n):
        errors.append(f"total {total}, expected 2^(mn)")
    a = domino_slots(m, n)
    if any(hist.get(a - v) != c for v, c in hist.items()):
        errors.append("domino histogram is not symmetric about A/2")
    raw = histogram_raw(hist, total, r)
    if raw[1] != Fraction(a, 2):
        errors.append(f"histogram mean {raw[1]}, expected A/2")
    errors += _domino_distribution("domino oracle", m, n, central_from_raw(raw))
    return errors + _oracle_moments_match(result, hist, total, r)


def check_oracle_schur(result: dict, n: int, c: int, r: int = 4) -> list[str]:
    hist, total, errors = _histogram(result)
    errors += _params(result, {"n": n, "c": c})
    if total != c**n:
        errors.append(f"total {total}, expected c^n")
    raw = histogram_raw(hist, total, r)
    e1, e2 = pair_sum_moments(schur_index_sets(n), c)
    if raw[1] != e1 or raw[2] != e2:
        errors.append(f"histogram E[X], E[X^2] = {raw[1]}, {raw[2]}; pair sums {e1}, {e2}")
    return errors + _oracle_moments_match(result, hist, total, r)


def check_oracle_invmaj(result: dict, n: int, r: int = 4) -> list[str]:
    hist, total, errors = _histogram(result)
    errors += _params(result, {"n": n})
    counts = mahonian_counts(n)
    if total != math.factorial(n) or hist != {v: c for v, c in enumerate(counts) if c}:
        errors.append("inv histogram differs from the Mahonian row")
    inv: dict[int, int] = {}
    maj: dict[int, int] = {}
    for key, cnt in result["joint"].items():
        a, b = (int(x) for x in key.split(","))
        inv[a] = inv.get(a, 0) + cnt
        maj[b] = maj.get(b, 0) + cnt
    if inv != hist:
        errors.append("joint histogram's inv marginal differs from the histogram")
    if maj != inv:
        errors.append("maj and inv marginals differ (MacMahon)")
    return errors + _oracle_moments_match(result, hist, total, r)


def check_oracle_boolean(result: dict, n: int, k: int, r: int = 4) -> list[str]:
    hist, total, errors = _histogram(result)
    errors += _params(result, {"n": n, "k": k})
    if total != 2 ** (2**n) or result["mode"] != "exhaustive":
        errors.append(f"total {total} in mode {result['mode']}, expected 2^(2^n) exhaustive")
    raw = histogram_raw(hist, total, r)
    e1, e2 = contained_set_moments(subcube_index_sets(n, k))
    if raw[1] != e1 or raw[2] != e2:
        errors.append(f"histogram E[X], E[X^2] = {raw[1]}, {raw[2]}; pair sums {e1}, {e2}")
    return errors + _oracle_moments_match(result, hist, total, r)


def check_sample_boolean(result: dict, n: int, k: int, samples: int, seed: int, r: int = 4) -> list[str]:
    hist, total, errors = _histogram(result)
    errors += _params(result, {"n": n, "k": k})
    if total != samples or result["samples"] != samples or result["seed"] != seed:
        errors.append(f"sample total {total}, samples {result['samples']}, seed {result['seed']}")
    if result["mode"] != "sample":
        errors.append(f"mode {result['mode']}, expected sample")
    e1, e2 = contained_set_moments(subcube_index_sets(n, k))
    mean = histogram_raw(hist, total, 1)[1]
    if (mean - e1) ** 2 > 36 * (e2 - e1 * e1) / samples:
        errors.append(f"sample mean {float(mean)} is beyond 6 standard errors of {float(e1)}")
    return errors + _oracle_moments_match(result, hist, total, r)
