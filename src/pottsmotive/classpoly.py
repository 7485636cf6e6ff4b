"""Integer polynomials in the torus class T, the coefficient ring for every
Grothendieck class this package produces.

T is the class of the one-dimensional torus, so the class of the affine line
is T + 1, and a variety whose class is the polynomial c has exactly
c(p - 1) points over the field with p elements.
"""

from __future__ import annotations

import sys
from typing import Iterable, Union

from .errors import ExactDivisionError, InvalidArgumentError, ResourceLimitError


class ClassPoly:
    """Immutable polynomial in T with arbitrary-precision integer
    coefficients, stored ascending with trailing zeros trimmed.

    Powers, and products of two factors with four or more coefficients
    each, go through Kronecker substitution: the operands are packed into
    one integer each (their values at X = 2^(8w), w bytes a coefficient),
    multiplied or raised to the power once in big-integer arithmetic, and
    the result is read back digit by digit.  The width w comes from a bound
    on the result's coefficients, so the reading back is exact."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ClassPoly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "ClassPoly":
        return cls(())

    @classmethod
    def const(cls, c: int) -> "ClassPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "ClassPoly":
        if power < 0:
            raise InvalidArgumentError("negative power of T")
        _check_length(power + 1)
        return cls((0,) * power + (coeff,))

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: Union["ClassPoly", int]) -> "ClassPoly":
        if not isinstance(other, ClassPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = ClassPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out)

    __radd__ = __add__

    def __neg__(self) -> "ClassPoly":
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other: Union["ClassPoly", int]) -> "ClassPoly":
        if not isinstance(other, ClassPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = ClassPoly.const(other)
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return _poly(out)

    def __rsub__(self, other: int) -> "ClassPoly":
        if not isinstance(other, int):
            return NotImplemented
        return ClassPoly.const(other) - self

    def __mul__(self, other: Union["ClassPoly", int]) -> "ClassPoly":
        if not isinstance(other, ClassPoly):
            if not isinstance(other, int):
                return NotImplemented
            return _poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return ZERO
        if len(a) < 4:
            # a factor such as T - 1 or T^2 - 3T + 1: three passes over b
            # cost less than packing b and unpacking the product
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            return _poly(out)
        # every product coefficient is a sum of at most len(a) terms a_i * b_j
        w = _width(max(map(abs, a)) * max(map(abs, b)) * len(a))
        return _poly(_unpack(_pack(a, w) * _pack(b, w), len(a) + len(b) - 1, w))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ClassPoly":
        if n < 0:
            raise InvalidArgumentError("negative power")
        a = self.coeffs
        if n == 0:
            return ONE
        if not a:
            return self
        _check_length((len(a) - 1) * n + 1)
        # the coefficients of a^n are at most its value at 1 with every
        # coefficient made positive
        w = _width(sum(map(abs, a)) ** n)
        return _poly(_unpack(_pack(a, w) ** n, (len(a) - 1) * n + 1, w))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = ClassPoly.const(other)
        if not isinstance(other, ClassPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- queries and helpers ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        if not self.coeffs:
            raise InvalidArgumentError("degree of the zero class is undefined")
        return len(self.coeffs) - 1

    def eval_int(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def scale_T_power(self, k: int) -> "ClassPoly":
        """Multiply by T^k."""
        if k < 0:
            raise InvalidArgumentError("negative power of T")
        if not self.coeffs:
            return self
        _check_length(len(self.coeffs) + k)
        return _poly([0] * k + list(self.coeffs))

    def divexact(self, divisor: "ClassPoly") -> "ClassPoly":
        """Exact quotient in integer polynomials; raises if a step of the long
        division is not divisible by the leading coefficient or a remainder
        is left."""
        if divisor.is_zero:
            raise InvalidArgumentError("division by the zero class")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dd = len(dcs) - 1
        lead = dcs[-1]
        quo = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            f, r = divmod(rem[i], lead)
            if r:
                raise ExactDivisionError(
                    f"({self}) is not divisible by ({divisor}) over the integers"
                )
            if f:
                quo[i - dd] = f
                for j, dc in enumerate(dcs):
                    rem[i - dd + j] -= f * dc
        if any(rem):
            raise ExactDivisionError(
                f"({self}) is not divisible by ({divisor}): "
                f"remainder {ClassPoly(rem)}"
            )
        return _poly(quo)

    # -- rendering ---------------------------------------------------------------

    def render(self, var: str = "T") -> str:
        if not self.coeffs:
            return "0"
        # one string per term, joined once, as in MPoly.render
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if not c:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                head = var if power == 1 else f"{var}^{power}"
                body = head if mag == 1 else f"{mag}*{head}"
            if not parts:  # the leading sign has no space, and no "+"
                parts.append("-" + body if c < 0 else body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"ClassPoly<{self.render()}>"


def _poly(cs: list) -> ClassPoly:
    """A ClassPoly from a list of ints, trimmed in place; unlike
    ClassPoly(...) it converts nothing, so callers pass only ints."""
    while cs and cs[-1] == 0:
        cs.pop()
    p = object.__new__(ClassPoly)
    object.__setattr__(p, "coeffs", tuple(cs))
    return p


def _check_length(count: int) -> None:
    """Refuse a class of count coefficients that no tuple can hold, before
    any arithmetic builds it."""
    if count > sys.maxsize:
        raise ResourceLimitError(
            f"a class with {count} coefficients is too large to represent"
        )


def _width(bound: int) -> int:
    """Bytes per coefficient that hold every integer c with |c| <= bound
    as a digit c + 2^(8w-1) in range(2^(8w))."""
    return (bound.bit_length() + 8) // 8


def _pack(coeffs, w: int) -> int:
    """The polynomial's value at X = 2^(8w), by shift-and-add."""
    shift = 8 * w
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << shift) + c
    return acc


def _unpack(value: int, n: int, w: int) -> list:
    """The n coefficients c_i of value = sum c_i X^i, X = 2^(8w), where
    every |c_i| < 2^(8w-1).  Adding the offset sum 2^(8w-1) X^i turns each
    c_i into the digit c_i + 2^(8w-1) in range(X), with no carry between
    digits; flipping the top bit of every digit back leaves c_i in w bytes
    of two's complement.  A carry out of the top digit means the width was
    too small, which the callers' bounds rule out."""
    offset = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    digits = value + offset
    if digits < 0 or digits >> (8 * w * n):
        raise AssertionError(f"Kronecker unpack of {n} coefficients at width {w} left a carry")
    data = (digits ^ offset).to_bytes(w * n, "little")
    read = int.from_bytes
    return [read(data[i : i + w], "little", signed=True) for i in range(0, w * n, w)]


T = ClassPoly.monomial(1)
ONE = ClassPoly.const(1)
ZERO = ClassPoly.zero()


def lefschetz(n: int = 1) -> ClassPoly:
    """(T + 1)^n, the class of affine n-space."""
    return (T + 1) ** n


class RationalClass:
    """Exact ratio of two ClassPoly values; just enough arithmetic to express
    the coefficients of the exponential solutions of the class recurrences,
    which are not always polynomial."""

    __slots__ = ("num", "den")

    def __init__(self, num: ClassPoly, den: ClassPoly = ONE):
        if den.is_zero:
            raise InvalidArgumentError("zero denominator")
        try:
            num = num.divexact(den)
            den = ONE
        except ExactDivisionError:
            pass
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalClass is immutable")

    @property
    def is_polynomial(self) -> bool:
        return self.den == ONE

    def as_class(self) -> ClassPoly:
        if not self.is_polynomial:
            raise ExactDivisionError(f"{self} is not a polynomial class")
        return self.num

    def __eq__(self, other) -> bool:
        if isinstance(other, ClassPoly):
            other = RationalClass(other)
        if not isinstance(other, RationalClass):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    # equal ratios need not share a numerator and denominator
    __hash__ = None

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalClass<{self}>"
