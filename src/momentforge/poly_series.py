"""Polynomials, quasi-polynomials, and truncated power series over exact rationals.

Polynomials carry the symbolic moments, quasi-polynomials the fitted
closed forms.  A PGF stays a :class:`CountRow`, its integer counts over one
total, until it is printed: each coefficient is reduced once, when first
read, and formatted once.  Truncated series in the shift variable ``z``
(``q = 1 + z``) multiply and divide up to a fixed order.

Coefficients are either :class:`fractions.Fraction` scalars or nested
:class:`Polynomial` values in a different symbol (e.g. series in ``z`` whose
coefficients are polynomials in ``n``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from momentforge.errors import SingularSeriesError

__all__ = ["CountRow", "Polynomial", "QuasiPolynomial", "TruncatedSeries"]

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

    ``coeffs[d]`` is the coefficient of ``symbol**d``; trailing zeros are
    stripped, so the zero polynomial has an empty coefficient tuple (its
    degree is the ``-inf`` sentinel).
    """

    __slots__ = ("symbol", "coeffs")

    def __init__(self, symbol: str, coeffs: Iterable = ()):
        cs = [_as_coef(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "coeffs", tuple(cs))

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

    @property
    def degree(self):
        """Degree, with float('-inf') for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Coef:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, d: int) -> Coef:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else Fraction(0)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        """Bring `other` into this polynomial's symbol, or None if impossible."""
        if isinstance(other, Polynomial):
            if other.symbol == self.symbol or other.is_constant() or self.is_constant():
                if other.symbol != self.symbol and not other.is_constant():
                    # self is constant: adopt other's symbol by symmetry at call sites
                    return None
                return other
            return None
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(self.symbol, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, Polynomial) and self.is_constant():
                return other + self.constant_value()
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        n = max(len(a), len(b))
        out = [
            (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
            for i in range(n)
        ]
        symbol = self.symbol if not self.is_constant() else o.symbol
        return Polynomial(symbol, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(self.symbol, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, Polynomial) else -_as_coef(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_coef(other)
            return Polynomial(self.symbol, tuple(x * c for x in self.coeffs))
        o = self._coerce(other)
        if o is None:
            if isinstance(other, Polynomial) and self.is_constant():
                return other * (self.constant_value() if self.coeffs else Fraction(0))
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return Polynomial(self.symbol, ())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return Polynomial(self.symbol, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        """Exact division by a nonzero scalar only."""
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1) / Fraction(other)
            return self * inv
        return NotImplemented

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        out = Polynomial.const(self.symbol, 1)
        base = self
        e = exp
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if isinstance(other, Polynomial):
            if self.coeffs != other.coeffs:
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
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            if isinstance(c, Polynomial):
                body, negative = f"({c.to_text()})", False
            else:
                negative = c < 0
                a = -c if negative else c
                body = str(a)
            if d == 0:
                term = body
            else:
                mono = self.symbol if d == 1 else f"{self.symbol}^{d}"
                term = mono if body == "1" else f"{body}*{mono}"
            if not parts:
                parts.append(f"-{term}" if negative else term)
            else:
                parts.append(f"- {term}" if negative else f"+ {term}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Polynomial[{self.symbol}]({self.to_text()})"


class CountRow:
    """The PGF sum_d (counts[d] / total) q^d, kept as its counts >= 0 over one total > 0.

    Trailing zero counts are dropped.  ``reduced`` gives each coefficient
    in lowest terms, each reduced once: by a shift of its trailing zero
    bits when the total is a power of two, else by one gcd.  ``texts``
    formats each once, and ``to_text`` writes the PGF with them as
    ``Polynomial.to_text`` writes the same polynomial in q.  The row
    compares equal to a row, a ``Polynomial`` or a number of the same value.
    """

    __slots__ = ("counts", "total", "_reduced", "_texts")

    def __init__(self, counts: Iterable[int], total: int):
        cs = list(counts)
        while cs and not cs[-1]:
            cs.pop()
        self.counts = tuple(cs)
        self.total = total
        self._reduced = self._texts = None

    @property
    def degree(self):
        """Degree, with float('-inf') for the zero row."""
        return len(self.counts) - 1 if self.counts else float("-inf")

    def reduced(self) -> list[tuple[int, int]]:
        """(numerator, denominator) of each coefficient in lowest terms."""
        if self._reduced is None:
            counts, total = self.counts, self.total
            if total & (total - 1):
                gcds = [math.gcd(c, total) for c in counts]
                self._reduced = [(c // g, total // g) for c, g in zip(counts, gcds)]
            else:  # a power of two: cancel the count's trailing zero bits, at most the total's
                top = total.bit_length() - 1
                shifts = [min((c & -c).bit_length() - 1, top) if c else top for c in counts]
                self._reduced = [(c >> s, total >> s) for c, s in zip(counts, shifts)]
        return self._reduced

    def texts(self) -> list[str]:
        """Each coefficient's text as ``str`` writes its Fraction, every denominator formatted once."""
        if self._texts is None:
            names = {1: ""}
            out = []
            for num, den in self.reduced():
                name = names.get(den)
                if name is None:
                    name = names[den] = f"/{den}"
                out.append(f"{num}{name}")
            self._texts = out
        return self._texts

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(num, den) for num, den in self.reduced())

    def coefficient(self, d: int) -> Fraction:
        return Fraction(*self.reduced()[d]) if 0 <= d < len(self.counts) else Fraction(0)

    def to_text(self) -> str:
        """Canonical text, as ``Polynomial.to_text`` writes the same polynomial in q."""
        texts = self.texts()
        terms = []
        for d in range(len(texts) - 1, -1, -1):
            text = texts[d]
            if text == "0":
                continue
            if d:
                mono = "q" if d == 1 else f"q^{d}"
                text = mono if text == "1" else f"{text}*{mono}"
            terms.append(text)
        return " + ".join(terms) if terms else "0"

    def __eq__(self, other) -> bool:
        if isinstance(other, CountRow):
            return len(self.counts) == len(other.counts) and all(
                a * other.total == b * self.total for a, b in zip(self.counts, other.counts)
            )
        if isinstance(other, (int, Fraction, Polynomial)):
            return Polynomial("q", self.coeffs) == other
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"CountRow({self.to_text()})"


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
    """Power series in one variable, truncated at a fixed order.

    ``coeffs[i]`` is the coefficient of ``var**i`` for ``i = 0..order``;
    arithmetic never reads beyond the order.  Coefficients may be rational
    scalars or polynomials in another symbol.
    """

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = [_as_coef(c) for c in coeffs][: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def constant(cls, value, order: int, var: str = "z") -> "TruncatedSeries":
        return cls(var, order, (value,))

    @classmethod
    def variable(cls, order: int, var: str = "z") -> "TruncatedSeries":
        return cls(var, order, (0, 1))

    def coefficient(self, i: int) -> Coef:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient index {i} outside order {self.order}")
        return self.coeffs[i]

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.var != other.var or self.order != other.order:
            raise ValueError(
                f"series mismatch: ({self.var!r}, order {self.order}) vs "
                f"({other.var!r}, order {other.order})"
            )

    def _lift(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            return other
        return TruncatedSeries.constant(_as_coef(other), self.order, self.var)

    def __add__(self, other):
        o = self._lift(other)
        return TruncatedSeries(
            self.var, self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.var, self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            c = _as_coef(other)
            return TruncatedSeries(self.var, self.order, tuple(x * c for x in self.coeffs))
        o = self._lift(other)
        out = [Fraction(0)] * (self.order + 1)
        for i, ai in enumerate(self.coeffs):
            if not ai:
                continue
            for j in range(self.order + 1 - i):
                bj = o.coeffs[j]
                if not bj:
                    continue
                out[i + j] = out[i + j] + ai * bj
        return TruncatedSeries(self.var, self.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        o = self._lift(other)
        inv0 = _invert_coef(o.coeffs[0])
        out: list[Coef] = []
        for k in range(self.order + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                bj = o.coeffs[j]
                if not bj:
                    continue
                acc = acc - bj * out[k - j]
            out.append(acc * inv0)
        return TruncatedSeries(self.var, self.order, out)

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("series power must be a nonnegative integer")
        out = TruncatedSeries.constant(1, self.order, self.var)
        base = self
        e = exp
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

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
