"""The one output walk: the text json.dumps writes, every exact value charged before any is formatted."""

import json
import math
import sys
from fractions import Fraction as Fr

import pytest

from momentforge import cli
from momentforge.cli import _joined, _pieces, _Text
from momentforge.poly_series import Polynomial, QuasiPolynomial


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=str)


ROW = Polynomial("q", [3, 0, 1, 0, 4, 0, 0], 8)
PAYLOADS = {
    "empty": [{}, [], "", {"a": {}, "b": []}],
    "nested": {"z": [1, [2, [3, {"y": [4, 5]}]], {}], "a": {"b": {"c": {"d": []}}}, "m": [{"k": [[]]}]},
    "text": {"é\u0001\n\"\\\t": ["ü \x7f", "😀", "plain"], "\x00": "zero"},
    "floats": [-0.0, 0.0, 1e300, -1e-300, 0.1, 2.5e-8],
    "constants": {"t": True, "f": False, "n": None, "list": [True, False, None]},
    "texts": {
        "int": _Text(-12),
        "fraction": _Text(Fr(-5, 12)),
        "polynomial": _Text(Polynomial("W", (Fr(1, 2), 0, Polynomial("n", (0, Fr(-3, 4)))))),
        "quasi": _Text(QuasiPolynomial(2, [Polynomial("n", (1, 2)), Polynomial("n", (Fr(1, 3),))])),
        "row": _Text(ROW),
        "coefficients": [_Text(ROW, d) for d in range(len(ROW.nums))],
        "zero": _Text(Polynomial("q", [0], 5)),
    },
}


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_the_walk_writes_what_json_dumps_writes(name):
    payload = {"subcommand": name, "result": PAYLOADS[name]}
    assert _joined(_pieces(payload)) == _dumps(payload)


def test_the_walk_writes_ints_past_the_interpreter_digit_limit():
    payload = {"big": [10**5000 + 7, -(3**9000)], "text": _Text(Fr(1, 7**6000))}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert _joined(_pieces(payload)) == _dumps(payload)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def no_formatting(monkeypatch):
    """Any formatting of a row or a Fraction raises."""

    def refuse(*args):
        raise AssertionError("formatted before the charge refused the output")

    monkeypatch.setattr(Polynomial, "texts", refuse)
    monkeypatch.setattr(Polynomial, "to_text", refuse)
    monkeypatch.setattr(Fr, "__str__", refuse)


# what no body returns: a bare exact value (never charged), a tuple, a
# non-str key, a non-finite float, any other object
OUTSIDE_THE_WALK = {
    "fraction": Fr(-3, 7),
    "polynomial": Polynomial("W", (Fr(1, 2), 1)),
    "row": ROW,
    "tuple": (1, 2),
    "empty-tuple": (),
    "int-key": {3: "int"},
    "none-key": {None: "null"},
    "mixed-keys": {1: "a", "b": 2},
    "nan": math.nan,
    "infinity": math.inf,
    "minus-infinity": -math.inf,
    "set": frozenset(),
}


@pytest.mark.parametrize("name", sorted(OUTSIDE_THE_WALK))
def test_what_no_body_returns_raises_before_any_value_is_formatted(name, no_formatting):
    value = OUTSIDE_THE_WALK[name]
    # alone, and after exact values the walk has already passed
    for result in (value, {"coefficients": [_Text(ROW, 0)], "p": _Text(Fr(1, 3)), "x": [value]}):
        with pytest.raises(TypeError):
            _pieces({"subcommand": name, "result": result})


@pytest.mark.parametrize(
    "counts,total",
    [
        ([1, 2, 2, 1], 6), ([3, 0, 1, 0, 4], 8), ([0, 0, 5], 5), ([7], 7), ([6, 0, 10, 12], 1 << 70), ([1], 1),
        ([math.comb(256, d) for d in range(257)], 1 << 256),
    ],
)
def test_a_row_prints_as_its_polynomial(counts, total):
    row = Polynomial("q", counts, total)
    poly = Polynomial("q", [Fr(c, total) for c in counts])
    assert row == poly and poly == row
    assert row.to_text() == poly.to_text()
    assert row.texts() == [str(poly.coefficient(d)) for d in range(len(row.nums))]
    assert row.reduced() == [(c.numerator, c.denominator) for c in poly.coeffs]


def test_the_walk_leaves_each_value_unformatted():
    row = Polynomial("q", [1, 3, 3, 1], 8)
    leaves = [_Text(row, 0), _Text(Fr(1, 3)), _Text(row)]  # in the order of their sorted keys
    pieces = _pieces({"coefficients": [leaves[0]], "p": leaves[1], "polynomial": leaves[2]})
    assert [p for p in pieces if not isinstance(p, str)] == leaves
    assert row._reduced is None and row._texts is None


@pytest.mark.parametrize(
    "argv",
    [
        ["pgf", "--family", "invmaj", "--n", "6"],
        ["pgf", "--family", "schur", "--n", "6", "--c", "3"],
        ["approx-h", "--n", "3", "--k", "1", "--with-polynomial"],
        ["approx-h", "--n", "3", "--k", "1", "--with-polynomial", "--format", "csv"],
    ],
)
def test_a_refused_output_formats_no_digit(argv, no_formatting, monkeypatch, run):
    monkeypatch.setattr(cli, "PRINT_TOTAL_GUARD", 10)
    proc = run(*argv)
    assert proc.code == 1
    assert proc.out == ""
    assert "PRINT_TOTAL_GUARD size guard" in proc.err, proc.err
