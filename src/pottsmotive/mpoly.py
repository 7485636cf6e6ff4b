"""Exact sparse multivariate polynomials over arbitrary-precision integers.

A polynomial lives in Z[q, t1, t2, ...]: one distinguished variable "q" plus
one variable per graph edge (named "t" + edge id).  Terms are stored as a
dict mapping exponent tuples to nonzero int coefficients; the variable tuple
is pruned to the variables that actually occur and kept in a canonical order
(q first, then edge variables in numeric-aware name order), so structural
equality is polynomial equality and printing is deterministic.

MPoly(...) validates its input: it copies the exponent tuples, converts the
coefficients with int(), and drops zero terms and unused variables.  A
result known to be valid skips that through the trusted _mpoly, whose
caller guarantees that the variables are in canonical order and each occurs
in some term, every key is a tuple of that length, and every coefficient is
a nonzero int.  Its callers: negation, multiplication by a nonzero int, the
product of two nonzero polynomials (over Z it uses every variable of both),
a sum in which no coefficient cancels, and tutte_delcon on a graph with a
vertex.  What can drop a variable (a cancelling sum, substitute,
lowest_homogeneous_part, divide_exact_by_q_power) stays on MPoly(...).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Mapping, Union

from .errors import ExactDivisionError, InvalidArgumentError

_NUM_SPLIT = re.compile(r"(\d+)")


@lru_cache(maxsize=4096)
def var_sort_key(name: str):
    """Canonical total order on variable names: q first, then natural order."""
    if name == "q":
        return (0,)
    pieces = []
    for piece in _NUM_SPLIT.split(name):
        if not piece:
            continue
        if piece.isdigit():
            pieces.append((1, int(piece), ""))
        else:
            pieces.append((0, 0, piece))
    # the name itself breaks ties such as "t1" against "t01"
    return (1, tuple(pieces), name)


def _is_canonical(variables: tuple) -> bool:
    keys = [var_sort_key(n) for n in variables]
    return all(a < b for a, b in zip(keys, keys[1:]))


class MPoly:
    """Immutable exact polynomial in named commuting variables."""

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables=(), terms: Mapping[tuple, int] | None = None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise InvalidArgumentError(f"duplicate variable names in {variables!r}")
        raw = {tuple(e): int(c) for e, c in (terms or {}).items() if c}
        for exps in raw:
            if len(exps) != len(variables):
                raise InvalidArgumentError(
                    f"exponent tuple {exps!r} does not match variables {variables!r}"
                )
        used = [i for i in range(len(variables)) if any(e[i] for e in raw)]
        # re-key only when a variable is unused or the order is not canonical
        if len(used) < len(variables) or not _is_canonical(variables):
            order = sorted(used, key=lambda i: var_sort_key(variables[i]))
            variables = tuple(variables[i] for i in order)
            raw = {tuple(e[i] for i in order): c for e, c in raw.items()}
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", raw)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return cls((), {})

    @classmethod
    def const(cls, c: int) -> "MPoly":
        return cls((), {(): int(c)}) if c else cls.zero()

    @classmethod
    def var(cls, name: str) -> "MPoly":
        return cls((name,), {(1,): 1})

    @classmethod
    def monomial(cls, exponents: Mapping[str, int], coeff: int = 1) -> "MPoly":
        names = tuple(exponents)
        return cls(names, {tuple(exponents[n] for n in names): coeff})

    # -- ring structure ----------------------------------------------------

    def _aligned(self, other: "MPoly"):
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        merged = tuple(
            sorted(set(self.variables) | set(other.variables), key=var_sort_key)
        )
        pos = {n: i for i, n in enumerate(merged)}

        def remap(poly):
            if poly.variables == merged:
                return poly.terms
            out = {}
            idx = [pos[n] for n in poly.variables]
            for exps, c in poly.terms.items():
                e = [0] * len(merged)
                for i, x in zip(idx, exps):
                    e[i] = x
                out[tuple(e)] = c
            return out

        return merged, remap(self), remap(other)

    def __add__(self, other: Union["MPoly", int]) -> "MPoly":
        if not isinstance(other, MPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = MPoly.const(other)
        names, a, b = self._aligned(other)
        out = dict(a)
        cancelled = False
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
                cancelled = True
        # a cancelled term may have held the last power of a variable
        return MPoly(names, out) if cancelled else _mpoly(names, out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _mpoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["MPoly", int]) -> "MPoly":
        if not isinstance(other, MPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = MPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "MPoly":
        if not isinstance(other, int):
            return NotImplemented
        return MPoly.const(other) - self

    def __mul__(self, other: Union["MPoly", int]) -> "MPoly":
        if not isinstance(other, MPoly):
            if not isinstance(other, int):
                return NotImplemented
            if not other:
                return MPoly.zero()
            return _mpoly(self.variables, {e: c * other for e, c in self.terms.items()})
        if not self.terms or not other.terms:
            return MPoly.zero()
        names, a, b = self._aligned(other)
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        # a product of nonzero polynomials over Z uses every variable of both
        return _mpoly(names, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise InvalidArgumentError("negative polynomial power")
        result = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.variables, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- queries -----------------------------------------------------------

    def total_degree(self) -> int:
        if not self.terms:
            raise InvalidArgumentError("degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        """Largest exponent of `name`; 0 when the variable does not occur."""
        if name not in self.variables:
            return 0
        i = self.variables.index(name)
        return max(e[i] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- operations --------------------------------------------------------

    def substitute(self, name: str, value: Union["MPoly", int]) -> "MPoly":
        """Exact substitution of `value` for the variable `name`."""
        if name not in self.variables:
            return self
        idx = self.variables.index(name)
        rest = self.variables[:idx] + self.variables[idx + 1 :]
        if isinstance(value, int):
            # value**e is an int: each term lands on its own exponents
            # without `name`, and no variable joins
            out: dict = {}
            for exps, c in self.terms.items():
                key = exps[:idx] + exps[idx + 1 :]
                out[key] = out.get(key, 0) + c * value ** exps[idx]
            return MPoly(rest, out)
        names = tuple(sorted(set(rest) | set(value.variables), key=var_sort_key))
        pos = {n: i for i, n in enumerate(names)}
        rest_idx = [pos[n] for n in rest]
        value_idx = [pos[n] for n in value.variables]

        def lift(exps, idx_map) -> list[int]:
            e = [0] * len(names)
            for i, x in zip(idx_map, exps):
                e[i] = x
            return e

        # the terms of value**e, lifted to `names`, for each exponent e of `name`
        powers: dict[int, list] = {}
        out: dict = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if e not in powers:
                powers[e] = [
                    (lift(pe, value_idx), pc) for pe, pc in (value**e).terms.items()
                ]
            base = lift(exps[:idx] + exps[idx + 1 :], rest_idx)
            for pe, pc in powers[e]:
                key = tuple(a + b for a, b in zip(base, pe))
                out[key] = out.get(key, 0) + c * pc
        return MPoly(names, out)

    def eval_mod(self, assignment: Mapping[str, int], prime: int) -> int:
        """Value at a point of the field with `prime` elements."""
        for name in self.variables:
            if name not in assignment:
                raise InvalidArgumentError(f"no value assigned to variable {name!r}")
        total = 0
        vals = [assignment[n] % prime for n in self.variables]
        for exps, c in self.terms.items():
            term = c % prime
            for v, e in zip(vals, exps):
                if e:
                    term = term * pow(v, e, prime) % prime
            total = (total + term) % prime
        return total

    def lowest_homogeneous_part(self) -> "MPoly":
        """Sum of the terms of minimal total degree (all variables weight 1)."""
        if not self.terms:
            raise InvalidArgumentError(
                "the zero polynomial has no lowest homogeneous part"
            )
        low = min(sum(e) for e in self.terms)
        return MPoly(
            self.variables, {e: c for e, c in self.terms.items() if sum(e) == low}
        )

    def divide_exact_by_q_power(self, k: int) -> "MPoly":
        """Exact quotient by q^k; every term must be divisible."""
        if k < 0:
            raise InvalidArgumentError("negative power of q")
        if k == 0 or not self.terms:
            return self
        if "q" not in self.variables:
            raise ExactDivisionError(f"q^{k} does not divide {self}")
        idx = self.variables.index("q")
        out = {}
        for exps, c in self.terms.items():
            if exps[idx] < k:
                raise ExactDivisionError(f"q^{k} does not divide the term {exps}")
            e = list(exps)
            e[idx] -= k
            out[tuple(e)] = c
        return MPoly(self.variables, out)

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """Terms in graded-lex order, highest first (the printing order)."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def render(self) -> str:
        if not self.terms:
            return "0"
        # one string per term, joined once: appending to one string is
        # quadratic in the length of the output
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:  # the leading sign has no space, and no "+"
                parts.append("-" + body if c < 0 else body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"MPoly<{self.render()}>"


def _mpoly(variables: tuple, terms: dict) -> MPoly:
    """An MPoly that takes `variables` and `terms` as they are: no copy, no
    int(), no length check and no pruning.  The caller guarantees the
    invariants MPoly(...) would establish (see the module docstring)."""
    p = object.__new__(MPoly)
    object.__setattr__(p, "variables", variables)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "_hash", None)
    return p


Q = MPoly.var("q")


def edge_var(edge_id: str) -> MPoly:
    """The polynomial variable t<edge_id> attached to an edge."""
    return MPoly.var("t" + str(edge_id))
