"""Polynomials, quasi-polynomials, and truncated power series over exact rationals.

Polynomials carry the symbolic moments and the PGFs, quasi-polynomials the
fitted closed forms.  A polynomial with number coefficients is integer
numerators over one denominator: a sum or product cancels one common
factor, not one per coefficient, and a PGF is its integer counts over
their total, untouched until it is printed, when each coefficient is
reduced once, when first read, and formatted once.  A truncated series in
the shift variable ``z`` (``q = 1 + z``) is a polynomial in ``z`` cut at a
fixed order: it adds, multiplies and takes powers as the polynomial does,
cut again, and divides by the recurrence on its constant term.

Coefficients are read as :class:`fractions.Fraction` scalars or as nested
:class:`Polynomial` values in a different symbol (e.g. series in ``z`` whose
coefficients are polynomials in ``n``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice, zip_longest
from typing import Iterable, Union

from momentforge.errors import SingularSeriesError

__all__ = ["Polynomial", "QuasiPolynomial", "TruncatedSeries"]

Coef = Union[Fraction, "Polynomial"]


def _as_coef(value) -> Coef:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"unsupported coefficient type: {type(value).__name__}")


class Polynomial:
    """Dense univariate polynomial in a named symbol, canonical form.

    With number coefficients it keeps integer numerators ``nums`` over one
    denominator ``den`` > 0.  ``Polynomial(symbol, counts, total)`` takes
    integer counts over their total as they are, with no gcd and no type
    check; a sum or product cancels its result's common factor in one gcd
    pass.
    With a polynomial coefficient (in another symbol) ``nums`` holds the
    coefficients, Fractions and polynomials, and den = 1.  ``coeffs[d]`` is
    the coefficient of ``symbol**d``; trailing zeros are stripped, so the
    zero polynomial has an empty coefficient tuple (its degree is the
    ``-inf`` sentinel).  A number polynomial is written from ``texts``:
    each coefficient reduced once, when first read, and formatted once.
    """

    __slots__ = ("symbol", "nums", "den", "_reduced", "_texts")

    def __init__(self, symbol: str, coeffs: Iterable = (), den: int = 1):
        """The polynomial with these coefficients or, with ``den`` != 1, these integer numerators over den."""
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        if den == 1 and any(c.__class__ is not int for c in cs):
            cs = [_as_coef(c) for c in cs]
            if not any(isinstance(c, Polynomial) for c in cs):
                den = math.lcm(*(c.denominator for c in cs))
                cs = [c.numerator * (den // c.denominator) for c in cs]
        for name, value in zip(self.__slots__, (symbol, tuple(cs), den, None, None)):
            object.__setattr__(self, name, value)

    @staticmethod
    def _over(symbol: str, nums: list, den: int) -> "Polynomial":
        """nums / den, their common factor cancelled in one gcd pass."""
        g = math.gcd(den, *nums) if den != 1 else 1
        return Polynomial(symbol, [x // g for x in nums] if g != 1 else nums, den // g)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls, symbol: str) -> "Polynomial":
        return cls(symbol, (0, 1))

    @classmethod
    def const(cls, symbol: str, value) -> "Polynomial":
        return cls(symbol, (value,))

    # -- structure ---------------------------------------------------------

    def is_numeric(self) -> bool:
        """True when every coefficient is a number, kept as an integer over ``den``."""
        return not self.nums or self.nums[0].__class__ is int

    @property
    def coeffs(self) -> tuple[Coef, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums) if self.is_numeric() else self.nums

    @property
    def degree(self):
        """Degree, with float('-inf') for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else float("-inf")

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    def constant_value(self) -> Coef:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coefficient(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def coefficient(self, d: int) -> Coef:
        if not 0 <= d < len(self.nums):
            return Fraction(0)
        return Fraction(self.nums[d], self.den) if self.is_numeric() else self.nums[d]

    def reduced(self) -> list[tuple[int, int]]:
        """(numerator, denominator) of each number coefficient in lowest terms.

        Each is reduced once, when first read: by a shift of its trailing
        zero bits when ``den`` is a power of two, else by one gcd.
        """
        if self._reduced is None:
            nums, den = self.nums, self.den
            if den & (den - 1):
                gcds = [math.gcd(x, den) for x in nums]
                out = [(x // g, den // g) for x, g in zip(nums, gcds)]
            else:  # a power of two: cancel the numerator's trailing zero bits, at most den's
                top = den.bit_length() - 1
                shifts = [min((x & -x).bit_length() - 1, top) if x else top for x in nums]
                out = [(x >> s, den >> s) for x, s in zip(nums, shifts)]
            object.__setattr__(self, "_reduced", out)
        return self._reduced

    def texts(self) -> list[str]:
        """Each number coefficient's text as ``str`` writes its Fraction, every denominator formatted once."""
        if self._texts is None:
            names = {1: ""}
            out = []
            for num, den in self.reduced():
                name = names.get(den)
                if name is None:
                    name = names[den] = f"/{den}"
                out.append(f"{num}{name}")
            object.__setattr__(self, "_texts", out)
        return self._texts

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        """`other` in this polynomial's symbol: a number, a constant or a polynomial in the same symbol; else None."""
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(self.symbol, other)
        if isinstance(other, Polynomial) and (other.symbol == self.symbol or other.is_constant()):
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, Polynomial) and self.is_constant():
                return other + self.constant_value()
            return NotImplemented
        symbol = self.symbol if not self.is_constant() else o.symbol
        if not (self.is_numeric() and o.is_numeric()):
            return Polynomial(symbol, [a + b for a, b in zip_longest(self.coeffs, o.coeffs, fillvalue=0)])
        g = math.gcd(self.den, o.den)
        sa, sb = o.den // g, self.den // g
        out = [x * sa + y * sb for x, y in zip_longest(self.nums, o.nums, fillvalue=0)]
        return Polynomial._over(symbol, out, sa * self.den)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial._over(self.symbol, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, Polynomial) else -_as_coef(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, Polynomial) and self.is_constant():
                return other * self.constant_value()
            return NotImplemented
        numeric = self.is_numeric() and o.is_numeric()
        a, b = (self.nums, o.nums) if numeric else (self.coeffs, o.coeffs)
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return Polynomial._over(self.symbol, out, self.den * o.den if numeric else 1)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        """Exact division by a nonzero scalar only."""
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1) / Fraction(other)
            return self * inv
        return NotImplemented

    def __pow__(self, exp: int):
        return _power(self, exp, Polynomial.const(self.symbol, 1))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if isinstance(other, Polynomial):
            if self.is_numeric() and other.is_numeric():  # cross-multiplied, no coefficient reduced
                a, b = self.nums, other.nums
                if len(a) != len(b) or any(x * other.den != y * self.den for x, y in zip(a, b)):
                    return False
            elif self.coeffs != other.coeffs:
                return False
            return self.symbol == other.symbol or self.is_constant()
        return NotImplemented

    __hash__ = None  # mutable-free but not intended as a dict key

    # -- substitution --------------------------------------------------------

    def eval(self, value):
        """Evaluate the outer symbol at a scalar, or substitute a polynomial for it, via Horner.

        With nested coefficients the result is the coefficient-ring value
        (a polynomial in the inner symbol).
        """
        v = _as_coef(value) if isinstance(value, int) else value
        out: Coef = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    # -- rendering ----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text, expanded, monomials degree-descending."""
        if self.is_numeric():
            texts = self.texts()
        else:
            texts = ["0" if not c else f"({c.to_text()})" if isinstance(c, Polynomial) else str(c) for c in self.nums]
        symbol = self.symbol
        terms = []
        for d in range(len(texts) - 1, -1, -1):
            text = texts[d]
            if text == "0":
                continue
            if d:
                mono = symbol if d == 1 else f"{symbol}^{d}"
                text = mono if text == "1" else "-" + mono if text == "-1" else f"{text}*{mono}"
            terms.append(text)
        text = " + ".join(terms) if terms else "0"
        # a negative term is written "- t" after the first
        return text.replace("+ -", "- ") if "-" in text else text

    def __repr__(self) -> str:
        return f"Polynomial[{self.symbol}]({self.to_text()})"


class QuasiPolynomial:
    """One polynomial per residue class modulo a period.

    Branch ``j`` applies when ``n % period == j``.  Construction
    canonicalizes to the minimal period (branches equal across every
    coarser residue class are merged).
    """

    __slots__ = ("period", "branches")

    def __init__(self, period: int, branches: Iterable[Polynomial]):
        brs = list(branches)
        if period < 1 or len(brs) != period:
            raise ValueError("need exactly `period` branches, period >= 1")
        for d in range(1, period + 1):
            if period % d:
                continue
            if all(brs[j] == brs[j % d] for j in range(period)):
                period, brs = d, brs[:d]
                break
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "branches", tuple(brs))

    def __setattr__(self, name, value):
        raise AttributeError("QuasiPolynomial is immutable")

    def branch_for(self, n: int) -> Polynomial:
        return self.branches[n % self.period]

    def eval(self, n: int) -> Coef:
        if n < 0:
            raise ValueError("quasi-polynomial evaluation needs n >= 0")
        return self.branch_for(n).eval(n)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            other = QuasiPolynomial(1, [other])
        if not isinstance(other, QuasiPolynomial):
            return NotImplemented
        return self.period == other.period and self.branches == other.branches

    __hash__ = None

    def to_text(self) -> str:
        if self.period == 1:
            return self.branches[0].to_text()
        lines = [
            f"[n = {j} mod {self.period}] {b.to_text()}" for j, b in enumerate(self.branches)
        ]
        return "; ".join(lines)

    def __repr__(self) -> str:
        return f"QuasiPolynomial(period={self.period}, {self.to_text()})"


class TruncatedSeries:
    """Power series in one variable, a polynomial in ``var`` cut at a fixed order.

    ``+``, ``-``, ``*`` and ``**`` are the polynomial's (``poly``), cut
    again, so nothing past the order is kept; ``coeffs[i]``, the
    coefficient of ``var**i`` for ``i = 0..order``, is padded to the order.
    Coefficients may be rational scalars or polynomials in another symbol,
    which scale the series coefficient by coefficient.
    """

    __slots__ = ("var", "order", "poly")

    def __init__(self, var: str, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise ValueError("series order must be >= 0")
        for name, value in zip(self.__slots__, (var, order, Polynomial(var, islice(coeffs, order + 1)))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def constant(cls, value, order: int, var: str = "z") -> "TruncatedSeries":
        return cls(var, order, (value,))

    @classmethod
    def variable(cls, order: int, var: str = "z") -> "TruncatedSeries":
        return cls(var, order, (0, 1))

    @property
    def coeffs(self) -> tuple[Coef, ...]:
        cs = self.poly.coeffs
        return cs + (Fraction(0),) * (self.order + 1 - len(cs))

    def coefficient(self, i: int) -> Coef:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient index {i} outside order {self.order}")
        return self.poly.coefficient(i)

    def _lift(self, other) -> Polynomial:
        """``other`` as a polynomial in ``var``: a series of the same var and order, or a constant coefficient."""
        if not isinstance(other, TruncatedSeries):
            return Polynomial(self.var, (_as_coef(other),))
        if self.var != other.var or self.order != other.order:
            raise ValueError(
                f"series mismatch: ({self.var!r}, order {self.order}) vs "
                f"({other.var!r}, order {other.order})"
            )
        return other.poly

    def _cut(self, poly: Polynomial) -> "TruncatedSeries":
        """The series of ``poly``, a polynomial in ``var``, its terms past the order dropped."""
        return TruncatedSeries(self.var, self.order, poly.coeffs)

    def __add__(self, other):
        return self._cut(self.poly + self._lift(other))

    __radd__ = __add__

    def __neg__(self):
        return self._cut(-self.poly)

    def __sub__(self, other):
        return self._cut(self.poly - self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return self._cut(self.poly * self._lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        b = self._lift(other).coeffs
        inv0 = _invert_coef(b[0] if b else Fraction(0))
        out: list[Coef] = []
        for k, acc in enumerate(self.coeffs):
            for j in range(1, min(k + 1, len(b))):
                if b[j]:
                    acc = acc - b[j] * out[k - j]
            out.append(acc * inv0)
        return TruncatedSeries(self.var, self.order, out)

    def __pow__(self, exp: int):
        return _power(self, exp, TruncatedSeries.constant(1, self.order, self.var))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.var == other.var and self.order == other.order and self.poly == other.poly

    __hash__ = None

    def to_text(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            body = f"({c.to_text()})" if isinstance(c, Polynomial) else str(c)
            mono = "" if i == 0 else ("*" + (self.var if i == 1 else f"{self.var}^{i}"))
            parts.append(f"{body}{mono}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({self.var}^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.to_text()})"


def _power(base, exp: int, one):
    """base**exp for an integer exp >= 0, by repeated squaring from ``one``."""
    if not isinstance(exp, int) or exp < 0:
        raise ValueError("power must be a nonnegative integer")
    out = one
    while exp:
        if exp & 1:
            out = out * base
        exp >>= 1
        if exp:
            base = base * base
    return out


def _invert_coef(c: Coef) -> Coef:
    """Invert a unit of the coefficient ring.

    Rationals must be nonzero; polynomial coefficients are units only when
    constant (with nonzero constant value).
    """
    if isinstance(c, Polynomial):
        if not c.is_constant() or c.is_zero():
            raise SingularSeriesError(
                f"constant term {c!r} is not invertible in the coefficient ring"
            )
        c = c.constant_value()
    if not c:
        raise SingularSeriesError("division by a series with zero constant term")
    return Fraction(1) / c
