"""Integer polynomials in the torus class T, the coefficient ring for every
Grothendieck class this package produces.

T is the class of the one-dimensional torus, so the class of the affine line
is T + 1, and a variety whose class is the polynomial c has exactly
c(p - 1) points over the field with p elements.
"""

from __future__ import annotations

from typing import Iterable, Union

from .errors import ExactDivisionError, InvalidArgumentError


class ClassPoly:
    """Immutable polynomial in T with arbitrary-precision integer
    coefficients, stored ascending with trailing zeros trimmed."""

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
        return cls((0,) * power + (coeff,))

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: Union["ClassPoly", int]) -> "ClassPoly":
        if isinstance(other, int):
            other = ClassPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ClassPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "ClassPoly":
        return ClassPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Union["ClassPoly", int]) -> "ClassPoly":
        if isinstance(other, int):
            other = ClassPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "ClassPoly":
        return ClassPoly.const(other) - self

    def __mul__(self, other: Union["ClassPoly", int]) -> "ClassPoly":
        if isinstance(other, int):
            return ClassPoly(tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return ClassPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ClassPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ClassPoly":
        if n < 0:
            raise InvalidArgumentError("negative power")
        result = ClassPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

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
        return ClassPoly((0,) * k + self.coeffs)

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
        return ClassPoly(quo)

    # -- rendering ---------------------------------------------------------------

    def render(self, var: str = "T") -> str:
        if not self.coeffs:
            return "0"
        chunks = []
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
            chunks.append(("-" if c < 0 else "+", body))
        sign, body = chunks[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"ClassPoly<{self.render()}>"


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
