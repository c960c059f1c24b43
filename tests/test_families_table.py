"""Every entry of families.FAMILIES against the exhaustive oracle, route by route."""

import pytest

from momentforge import oracle
from momentforge.families import FAMILIES, domino, invmaj
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
    spy(invmaj, "binomial_moments")
    spy(domino, "binomial_sums")
    spy(oracle, "enumerate_boards")
    FAMILIES["invmaj"].pgf({"n": 4})
    FAMILIES["invmaj"].moments("raw", 4, {"n": 4})
    FAMILIES["domino"].moments("raw", 4, {"m": 2, "n": 2})
    FAMILIES["domino"].pgf({"m": 2, "n": 2})
    assert calls == ["pgf", "binomial_moments", "binomial_sums", "enumerate_boards"]
