"""Every entry of families.FAMILIES against the exhaustive oracle, route by route."""

import dataclasses
import json
import math
import re
from fractions import Fraction

import mpmath
import pytest

from momentforge import cli, oracle
from momentforge.errors import SizeGuardError
from momentforge.exact_core import falling_factorial
from momentforge.families import FAMILIES, boolean, domino, invmaj, moment_vector
from momentforge.families.common import TGrid, mgf_deviation
from momentforge.moment_algebra import normality_report, raw_to_central
from momentforge.oracle import histogram_moments
from momentforge.poly_series import Polynomial

# (family, params, source of the PGF route); small enough to enumerate
MEMBERS = [
    ("schur", {"n": 7, "c": 2}, "oracle"),
    ("schur", {"n": 4, "c": 3}, "oracle"),
    ("invmaj", {"n": 6}, "closed-form"),
    ("boolean", {"n": 3, "k": 0}, "closed-form"),
    ("boolean", {"n": 3, "k": 1}, "oracle"),
    ("boolean", {"n": 4, "k": 2}, "oracle"),
    ("domino", {"m": 1, "n": 7}, "closed-form"),
    ("domino", {"m": 2, "n": 3}, "oracle"),
]
ORDER_CAP = 6  # checked order where a route serves every order


def test_members_cover_the_table():
    assert {family for family, _, _ in MEMBERS} == set(FAMILIES)


@pytest.mark.parametrize("family,params,source", MEMBERS, ids=[f"{f}-{p}" for f, p, _ in MEMBERS])
def test_routes_match_the_oracle(family, params, source):
    entry = FAMILIES[family]
    assert entry.resolve(params) == params
    hist, _ = entry.enumerate(params)
    poly, label = entry.pgf(params)
    assert label == source
    assert poly == hist.pgf()
    assert entry.space_size(params) == hist.total
    limit = entry.max_order(params)
    r_max = ORDER_CAP if limit is None else limit
    raw = histogram_moments(hist, r_max)
    mu = hist.mean()
    assert entry.mean(params) == mu
    # E[(X - mu)^r] and E[C(X - mu, r)] summed over the histogram itself
    expected = {
        "raw": raw.entries,
        "central": tuple(
            sum(c * (v - mu) ** r for v, c in hist.counts.items()) / hist.total for r in range(r_max + 1)
        ),
        "binomial": tuple(
            sum(c * falling_factorial(v - mu, r) for v, c in hist.counts.items())
            / (hist.total * math.factorial(r))
            for r in range(r_max + 1)
        ),
    }
    vec = entry.moments(r_max, params)
    assert vec.kind in ("raw", "central")
    assert tuple(vec.entries) == tuple(expected[vec.kind])
    for kind, entries in expected.items():
        assert tuple(moment_vector(family, kind, r_max, params).entries) == tuple(entries), kind


def test_defaults_and_capabilities():
    assert {name: dict(f.defaults) for name, f in FAMILIES.items()} == {
        "schur": {"c": 2},
        "invmaj": {},
        "boolean": {"k": 0},
        "domino": {"m": 1},
    }
    assert [name for name, f in FAMILIES.items() if f.sample] == ["boolean"]
    assert [name for name, f in FAMILIES.items() if f.closed_forms] == ["boolean", "domino"]
    assert [name for name, f in FAMILIES.items() if f.mgf] == ["invmaj", "domino"]
    assert FAMILIES["invmaj"].enumerate({"n": 3})[1]["joint"] == {
        "0,0": 1, "1,1": 1, "1,2": 1, "2,1": 1, "2,2": 1, "3,3": 1,
    }


@pytest.mark.parametrize(
    "family,members",
    [
        ("schur", [{"n": n, "c": c} for n in range(1, 80) for c in range(2, 9)]),
        ("invmaj", [{"n": n} for n in (*range(1, 400), 25205, 25206)]),  # 25206! is the first past 10^5 digits
        ("boolean", [{"n": n, "k": 0} for n in range(0, 14)]),
        ("domino", [{"m": m, "n": n} for m in range(1, 12) for n in range(1, 40)]),
    ],
)
def test_space_bits_is_a_tight_lower_bound(family, members):
    entry = FAMILIES[family]
    for params in members:
        exact = entry.space_size(params).bit_length()
        assert exact - 1 - 1e-9 <= entry.space_bits(params) <= exact, params


def test_routes_call_layers_through_module_attributes(monkeypatch):
    """A replaced module attribute is reached: routes capture no function objects."""
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(invmaj, "pgf")
    spy(invmaj, "central_moments")
    spy(domino, "binomial_sums")
    spy(oracle, "enumerate_boards")
    spy(invmaj, "mgf_deviation")
    spy(domino, "mgf_deviation_1n")
    FAMILIES["invmaj"].pgf({"n": 4})
    FAMILIES["invmaj"].moments(4, {"n": 4})
    FAMILIES["domino"].moments(4, {"m": 2, "n": 2})
    FAMILIES["domino"].pgf({"m": 2, "n": 2})
    FAMILIES["invmaj"].mgf({"n": 4}, [1], 50)
    FAMILIES["domino"].mgf({"m": 1, "n": 4}, [1], 50)
    assert calls == [
        "pgf", "central_moments", "binomial_sums", "enumerate_boards", "mgf_deviation", "mgf_deviation_1n",
    ]


def test_mgf_routes_are_the_family_deviations():
    grid = TGrid(Fraction(-2), Fraction(2), 9)
    assert len(grid) == 9 and list(grid) == [Fraction(x, 2) for x in range(-4, 5)]
    assert FAMILIES["invmaj"].mgf({"n": 30}, grid, 60) == invmaj.mgf_deviation(30, list(grid), 60)
    assert FAMILIES["domino"].mgf({"m": 1, "n": 30}, grid, 50) == domino.mgf_deviation_1n(30, list(grid))
    with pytest.raises(ValueError, match="1-by-n"):
        FAMILIES["domino"].mgf({"m": 2, "n": 30}, grid, 50)


def test_the_shared_mgf_loop():
    """pgf_at once per call at the working precision, G(1) = 1 unread, the guard before any t."""
    made, read = [], []

    def pgf_at():
        made.append(mpmath.mp.dps)

        def at(u):  # G(e^{2u}) = e^{2u^2} is e^{t^2/2} exactly at sigma = 1
            read.append(u)
            return mpmath.e ** (2 * u * u)

        return at

    sup, rows = mgf_deviation(Fraction(1), 3, pgf_at, TGrid(Fraction(-1), Fraction(1), 5), 80)
    assert made == [80] and len(read) == 4
    assert [t for t, _ in rows] == [-1, Fraction(-1, 2), 0, Fraction(1, 2), 1]
    assert rows[2][1] == 0 and sup < mpmath.mpf(10) ** -75

    class Unread(TGrid):
        def __iter__(self):
            raise AssertionError("a t point was read past the guard")

    with pytest.raises(SizeGuardError, match="MGF_GUARD"):
        mgf_deviation(Fraction(1), 3, pgf_at, Unread(Fraction(0), Fraction(1), 10**6), 50)
    assert made == [80]


@pytest.mark.parametrize(
    "family,params,count",
    [("boolean", {"n": 5, "k": 0}, 32), ("domino", {"m": 1, "n": 40}, 39)],
    ids=["boolean-n5", "domino-1x40"],
)
def test_binomial_half_moments_at_order_60(family, params, count):
    # both counts are Binomial(count, 1/2): sum_d C(count, d) f(d) / 2^count
    r_max = 60
    half = Fraction(count, 2)
    raw = [
        Fraction(sum(math.comb(count, d) * d**r for d in range(count + 1)), 2**count) for r in range(r_max + 1)
    ]
    central = [
        sum(math.comb(count, d) * (d - half) ** r for d in range(count + 1)) / 2**count for r in range(r_max + 1)
    ]
    assert tuple(moment_vector(family, "raw", r_max, params).entries) == tuple(raw)
    assert tuple(moment_vector(family, "central", r_max, params).entries) == tuple(central)


# (family, parameters other than n, n-grid, highest order the central route serves)
NORMALITY_MEMBERS = [
    ("schur", {"c": 2}, [5, 6, 7], 2),
    ("invmaj", {}, [4, 5, 6], 6),
    ("boolean", {"k": 0}, [2, 3, 4], 6),
    ("boolean", {"k": 1}, [2, 3, 4], 3),
    ("boolean", {"k": 2}, [2, 3, 4], 2),
    ("domino", {"m": 2}, [2, 3, 4], 6),
]


def _normality_argv(family, params, ns, r_max):
    argv = ["normality", "--family", family, "--n-grid", ",".join(map(str, ns)), "--r-max", str(r_max)]
    for name, value in params.items():
        if name != "c":  # normality takes schur at its default c = 2
            argv += [f"--{name}", str(value)]
    return argv


@pytest.mark.parametrize(
    "family,params,ns,r_max", NORMALITY_MEMBERS, ids=[f"{f}-{p}" for f, p, _, _ in NORMALITY_MEMBERS]
)
def test_normality_grid_is_the_central_moment_vector(family, params, ns, r_max, monkeypatch, run):
    grid = []

    def spy(*args, **kwargs):
        grid.extend(args[0])
        return normality_report(*args, **kwargs)

    monkeypatch.setattr(cli, "normality_report", spy)
    proc = run(*_normality_argv(family, params, ns, r_max))
    assert proc.code == 0
    assert json.loads(proc.out)["result"]["params"] == params
    assert [n for n, _ in grid] == ns
    entry = FAMILIES[family]
    for n, vec in grid:
        member = {**params, "n": n}
        assert vec == moment_vector(family, "central", r_max, member)
        raw = histogram_moments(entry.enumerate(entry.resolve(member))[0], r_max)
        assert vec.entries == raw_to_central(raw, raw.entries[1]).entries, member


@pytest.mark.parametrize(
    "family,params,ns,r_max",
    [
        ("schur", {"c": 2}, [5, 6, 7], 3),
        ("boolean", {"k": 1}, [2, 3, 4], 4),
        ("boolean", {"k": 2}, [2, 3, 4], 3),
        ("boolean", {"k": 0}, [-1, 2, 3], 4),  # n = -1 is no member
    ],
    ids=["schur-r3", "boolean-k1-r4", "boolean-k2-r3", "boolean-n-1"],
)
def test_normality_refuses_what_central_refuses(family, params, ns, r_max, run):
    proc = run(*_normality_argv(family, params, ns, r_max))
    assert proc.code == 1
    assert proc.out == ""
    with pytest.raises(ValueError):
        moment_vector(family, "central", r_max, {**params, "n": ns[0]})


def test_normality_builds_no_closed_form_texts(monkeypatch, run):
    calls = []
    for name, entry in FAMILIES.items():
        if entry.closed_forms:

            def spy(*args, _route=entry.closed_forms):
                calls.append(args)
                return _route(*args)

            monkeypatch.setitem(FAMILIES, name, dataclasses.replace(entry, closed_forms=spy))
    # a table of polynomials is a moment vector of Binomial(N, 1/2) with N a polynomial
    tables = []
    for module in (boolean, domino):

        def moments_spy(count, *args, _route=module.half_binomial_moments, **kwargs):
            if isinstance(count, Polynomial):
                tables.append(count)
            return _route(count, *args, **kwargs)

        monkeypatch.setattr(module, "half_binomial_moments", moments_spy)
    for argv in (
        ["normality", "--family", "domino", "--m", "1", "--n-grid", "10,100,1000", "--r-max", "8"],
        ["normality", "--family", "boolean", "--n-grid", "2,3,4", "--r-max", "6"],
    ):
        assert run(*argv).code == 0
    assert calls == []
    assert tables == []
    # the same spies see the texts of a moment subcommand
    proc = run("central", "--family", "domino", "--m", "1", "--n", "10", "--r", "8")
    assert proc.code == 0
    assert calls == [("central", 8, {"m": 1, "n": 10})]
    assert len(tables) == 1
    assert "closed_forms" in json.loads(proc.out)["result"]


def _evaluate(text: str, symbols: dict) -> Fraction:
    """A printed closed form at exact symbol values; every integer in it is read as a Fraction."""
    expression = re.sub(r"\d+", r"Fraction(\g<0>)", text).replace("^", "**")
    return eval(expression, {"__builtins__": {}, "Fraction": Fraction}, symbols)


# (family, parameters, highest order): boolean at every n <= 6, domino on its mu-domain
CLOSED_FORM_MEMBERS = [
    *(("boolean", {"n": n, "k": 0}, 8) for n in range(0, 7)),
    *(("boolean", {"n": n, "k": 1}, 3) for n in range(1, 7)),
    *(("boolean", {"n": n, "k": 2}, 2) for n in range(2, 7)),
    *(("domino", {"m": 1, "n": n}, 8) for n in range(1, 9)),
    *(("domino", {"m": m, "n": n}, 3) for m in (2, 3) for n in range(2, 6)),
]


@pytest.mark.parametrize("kind", ["raw", "central", "binomial"])
@pytest.mark.parametrize(
    "family,params,r_max", CLOSED_FORM_MEMBERS, ids=[f"{f}-{p}" for f, p, _ in CLOSED_FORM_MEMBERS]
)
def test_printed_closed_forms_are_the_moment_vector(family, params, r_max, kind, run):
    command = {"raw": "moments", "central": "central", "binomial": "binomial-moments"}[kind]
    argv = [command, "--family", family, "--r", str(r_max)]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    proc = run(*argv)
    assert proc.code == 0
    result = json.loads(proc.out)["result"]
    entries = moment_vector(family, kind, r_max, params).entries
    assert [Fraction(e) for e in result["entries"]] == list(entries)
    if family == "domino" and kind == "binomial":
        assert "closed_forms" not in result  # the mu-forms print raw and central moments only
        return
    n = params["n"]
    symbols = {"n": Fraction(n), "W": Fraction(2**n), "w": Fraction(2**n, 2)}
    if family == "domino":
        symbols["mu"] = domino.mean(params["m"], n)
    assert [_evaluate(text, symbols) for text in result["closed_forms"]] == list(entries)
