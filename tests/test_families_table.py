"""Every entry of families.FAMILIES against the exhaustive oracle, route by route."""

import math
from fractions import Fraction

import pytest

from momentforge import oracle
from momentforge.families import FAMILIES, domino, invmaj, moment_vector
from momentforge.oracle import histogram_moments

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
    vec, _ = entry.moments("raw", r_max, params)
    assert tuple(vec.entries) == tuple(histogram_moments(hist, r_max).entries)


def test_defaults_and_capabilities():
    assert {name: dict(f.defaults) for name, f in FAMILIES.items()} == {
        "schur": {"c": 2},
        "invmaj": {},
        "boolean": {"k": 0},
        "domino": {"m": 1},
    }
    assert [name for name, f in FAMILIES.items() if f.sample] == ["boolean"]
    assert [name for name, f in FAMILIES.items() if f.normality_grid is None] == ["schur"]
    assert FAMILIES["invmaj"].enumerate({"n": 3})[1]["joint"] == {
        "0,0": 1, "1,1": 1, "1,2": 1, "2,1": 1, "2,2": 1, "3,3": 1,
    }


@pytest.mark.parametrize(
    "family,members",
    [
        ("schur", [{"n": n, "c": c} for n in range(1, 80) for c in range(2, 9)]),
        ("invmaj", [{"n": n} for n in (*range(1, 400), 25205, 25206)]),  # PRINT_GUARD edge
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
    FAMILIES["invmaj"].pgf({"n": 4})
    FAMILIES["invmaj"].moments("raw", 4, {"n": 4})
    FAMILIES["domino"].moments("raw", 4, {"m": 2, "n": 2})
    FAMILIES["domino"].pgf({"m": 2, "n": 2})
    assert calls == ["pgf", "central_moments", "binomial_sums", "enumerate_boards"]


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
    assert tuple(moment_vector(family, "raw", r_max, params)[0].entries) == tuple(raw)
    assert tuple(moment_vector(family, "central", r_max, params)[0].entries) == tuple(central)
