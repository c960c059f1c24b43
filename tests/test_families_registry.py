from fractions import Fraction as Fr

import pytest

from momentforge import families
from momentforge.moment_algebra import raw_to_central
from momentforge.oracle import (
    enumerate_boards,
    enumerate_boolean,
    enumerate_permutations,
    enumerate_schur,
    histogram_moments,
)


def test_family_ids_and_validation():
    assert set(families.FAMILIES) == {"schur", "invmaj", "boolean", "domino"}
    families.validate_family("schur")
    with pytest.raises(ValueError):
        families.validate_family("qqq")


def _space_size(family, params):
    entry = families.FAMILIES[family]
    return entry.space_size(entry.resolve(params))


def test_sample_space_sizes():
    assert _space_size("schur", {"n": 5, "c": 2}) == 32
    assert _space_size("invmaj", {"n": 4}) == 24
    assert _space_size("boolean", {"n": 3}) == 256
    assert _space_size("domino", {"m": 2, "n": 3}) == 64


def _texts(family, kind, r_max, params):
    entry = families.FAMILIES[family]
    forms = entry.closed_forms(kind, r_max, entry.resolve(params))
    return None if forms is None else [e.to_text() for e in forms]


@pytest.mark.parametrize("kind", ["raw", "central", "binomial"])
def test_moment_vector_schur_matches_oracle(kind):
    hist = enumerate_schur(6, 2)
    raw = histogram_moments(hist, 2)
    expected = {
        "raw": raw.entries,
        "central": raw_to_central(raw, raw.entries[1]).entries,
    }
    vec = families.moment_vector("schur", kind, 2, {"n": 6, "c": 2})
    if kind == "binomial":
        assert vec.entries[2] == raw_to_central(raw, raw.entries[1]).entries[2] / 2
    else:
        assert tuple(vec.entries) == tuple(expected[kind])


def test_moment_vector_schur_rejects_high_order():
    with pytest.raises(ValueError):
        families.moment_vector("schur", "raw", 3, {"n": 6, "c": 2})


@pytest.mark.parametrize("kind", ["raw", "central", "binomial"])
def test_moment_vector_invmaj_matches_oracle(kind):
    hist = enumerate_permutations(6).marginal_inv()
    raw = histogram_moments(hist, 5)
    central = raw_to_central(raw, raw.entries[1])
    vec = families.moment_vector("invmaj", kind, 5, {"n": 6})
    if kind == "raw":
        assert tuple(vec.entries) == tuple(raw.entries)
    elif kind == "central":
        assert tuple(vec.entries) == tuple(central.entries)
    else:
        assert vec.entries[2] == central.entries[2] / 2


@pytest.mark.parametrize("k", [0, 1, 2])
def test_moment_vector_boolean_matches_oracle(k):
    r_max = {0: 6, 1: 3, 2: 2}[k]
    hist = enumerate_boolean(4, k)
    raw = histogram_moments(hist, r_max)
    vec = families.moment_vector("boolean", "raw", r_max, {"n": 4, "k": k})
    assert tuple(vec.entries) == tuple(raw.entries)
    assert _texts("boolean", "raw", r_max, {"n": 4, "k": k}) is not None
    central = families.moment_vector("boolean", "central", r_max, {"n": 4, "k": k})
    expect = raw_to_central(raw, raw.entries[1])
    assert tuple(central.entries) == tuple(expect.entries)


def test_moment_vector_boolean_binomial_k0():
    vec = families.moment_vector("boolean", "binomial", 4, {"n": 3, "k": 0})
    assert vec.entries[0] == 1 and vec.entries[1] == 0
    assert vec.entries[2] == Fr(2**3, 8)  # Var/2 = 2^n/8
    assert _texts("boolean", "binomial", 4, {"n": 3, "k": 0}) is not None


def test_moment_vector_boolean_order_caps():
    with pytest.raises(ValueError):
        families.moment_vector("boolean", "raw", 4, {"n": 4, "k": 1})
    with pytest.raises(ValueError):
        families.moment_vector("boolean", "central", 3, {"n": 4, "k": 2})


def test_moment_vector_domino_matches_oracle_r3():
    hist = enumerate_boards(2, 3)
    raw = histogram_moments(hist, 3)
    vec = families.moment_vector("domino", "raw", 3, {"m": 2, "n": 3})
    assert tuple(vec.entries) == tuple(raw.entries)
    assert _texts("domino", "raw", 3, {"m": 2, "n": 3}) == ["1", "mu", "mu^2 + 1/2*mu", "mu^3 + 3/2*mu^2"]
    central = families.moment_vector("domino", "central", 3, {"m": 2, "n": 3})
    assert central.entries[2] == Fr(7, 4)  # mu/2
    b = families.moment_vector("domino", "binomial", 3, {"m": 2, "n": 3})
    assert b.entries[2] == Fr(7, 8)


def test_moment_vector_domino_exact_beyond_closed_forms():
    raw = histogram_moments(enumerate_boards(2, 3), 6)
    vec = families.moment_vector("domino", "raw", 6, {"m": 2, "n": 3})
    assert tuple(vec.entries) == tuple(raw.entries)
    # the mu-polynomials are wrong from r = 4 on this board
    assert _texts("domino", "raw", 6, {"m": 2, "n": 3}) is None
    central = families.moment_vector("domino", "central", 6, {"m": 2, "n": 3})
    assert tuple(central.entries) == tuple(raw_to_central(raw, raw.entries[1]).entries)
    assert _texts("domino", "central", 6, {"m": 2, "n": 3}) is None
    assert _texts("domino", "raw", 6, {"m": 1, "n": 6}) is not None


def _central(family, n, r_max, params=None):
    return families.moment_vector(family, "central", r_max, {**(params or {}), "n": n})


def test_central_moments_at_grid_points():
    vec = _central("invmaj", 6, 4)
    hist = enumerate_permutations(6).marginal_inv()
    raw = histogram_moments(hist, 4)
    assert tuple(vec.entries) == tuple(raw_to_central(raw, raw.entries[1]).entries)

    vec = _central("domino", 8, 4, {"m": 1})
    mu = Fr(7, 2)
    assert vec.entries[2] == mu / 2

    vec = _central("domino", 3, 6, {"m": 3})
    raw = histogram_moments(enumerate_boards(3, 3), 6)
    assert tuple(vec.entries) == tuple(raw_to_central(raw, raw.entries[1]).entries)

    vec = _central("boolean", 3, 4, {"k": 0})
    assert vec.entries[2] == 2  # 2^(n-2)
    with pytest.raises(ValueError):
        _central("boolean", 3, 4, {"k": 1})
    with pytest.raises(ValueError):
        _central("schur", 6, 4)
