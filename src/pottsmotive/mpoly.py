"""Exact sparse multivariate polynomials over arbitrary-precision integers.

A polynomial lives in Z[q, t1, t2, ...]: one distinguished variable "q" plus
one variable per graph edge (named "t" + edge id).  Terms are stored as a
dict mapping exponent tuples to nonzero int coefficients; the variable tuple
is pruned to the variables that actually occur and kept in a canonical order
(q first, then edge variables in numeric-aware name order), so structural
equality is polynomial equality and printing is deterministic.  substitute
puts an int, never a polynomial, in for one variable.

MPoly(...) validates its input: it copies the exponent tuples, converts the
coefficients with int(), and drops zero terms and unused variables.  A
result known to be valid skips that through one of two trusted
constructors, whose callers guarantee that the variables are in canonical
order and each occurs.  _mpoly takes terms whose keys are tuples of that
length and whose coefficients are nonzero ints: negation, multiplication by
a nonzero int, the product of two nonzero polynomials (over Z it uses every
variable of both) and a sum in which no coefficient cancels.  _subset_poly
takes Z_G from tutte_delcon on a graph with a vertex as its k-list, k(A)
for each edge subset A in subset order.  Its terms slot stays unset, and
__getattr__ builds it (_subset_terms) on the first read and keeps it; only
render, ==, bool, is_zero and pointcount._dense_system, which hands the
list itself to the counting kernel, read the list (_ks) instead.  What can
drop a variable (a cancelling sum, substitute, lowest_homogeneous_part,
divide_exact_by_q_power) stays on MPoly(...).
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product
from operator import add, itemgetter
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

    __slots__ = ("variables", "terms", "_hash", "_ks")

    def __init__(self, variables=(), terms: Mapping[tuple, int] | None = None):
        variables = tuple(variables)
        width = len(variables)
        if len(set(variables)) != width:
            raise InvalidArgumentError(f"duplicate variable names in {variables!r}")
        raw = {tuple(e): int(c) for e, c in (terms or {}).items() if c}
        if set(map(len, raw)) - {width}:
            bad = next(e for e in raw if len(e) != width)
            raise InvalidArgumentError(
                f"exponent tuple {bad!r} does not match variables {variables!r}"
            )
        used = [i for i in range(width) if any(map(itemgetter(i), raw))]
        # re-key only when a variable is unused or the order is not canonical
        if len(used) < len(variables) or not _is_canonical(variables):
            order = sorted(used, key=lambda i: var_sort_key(variables[i]))
            variables = tuple(variables[i] for i in order)
            if len(order) >= 2:  # itemgetter of two or more returns a tuple
                rekey = itemgetter(*order)
                raw = {rekey(e): c for e, c in raw.items()}
            else:
                raw = {tuple(map(e.__getitem__, order)): c for e, c in raw.items()}
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", raw)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_ks", None)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    def __getattr__(self, name):
        # reached only for an unset slot: the terms of a k-list poly
        if name != "terms" or self._ks is None:
            raise AttributeError(name)
        terms = _subset_terms(self._ks, len(self.variables) - 1)
        object.__setattr__(self, "terms", terms)
        return terms

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

    # -- ring structure ----------------------------------------------------

    def _aligned(self, other: "MPoly"):
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        merged = tuple(
            sorted(set(self.variables) | set(other.variables), key=var_sort_key)
        )

        def remap(poly):
            if poly.variables == merged:
                return poly.terms
            if not poly.variables:
                return {(0,) * len(merged): c for c in poly.terms.values()}
            # merged has two or more variables, each of which reads its
            # exponent or the 0 appended
            pos = {n: i for i, n in enumerate(poly.variables)}
            pick = itemgetter(*(pos.get(n, len(pos)) for n in merged))
            return {pick(e + (0,)): c for e, c in poly.terms.items()}

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
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
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
        if self.variables != other.variables:
            return False
        if self._ks is not None and other._ks is not None:
            return self._ks == other._ks
        return self.terms == other.terms

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.variables, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return self._ks is not None or bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return self._ks is None and not self.terms

    # -- queries -----------------------------------------------------------

    def total_degree(self) -> int:
        if not self.terms:
            raise InvalidArgumentError("degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- operations --------------------------------------------------------

    def substitute(self, name: str, value: int) -> "MPoly":
        """Exact substitution of the integer `value` for the variable `name`."""
        if not isinstance(value, int):
            raise TypeError(f"substitute takes an int, not {type(value).__name__}")
        if name not in self.variables:
            return self
        # value**e is an int: each term lands on its own exponents without
        # `name`, and no variable joins
        idx = self.variables.index(name)
        out: dict = {}
        for exps, c in self.terms.items():
            key = exps[:idx] + exps[idx + 1 :]
            out[key] = out.get(key, 0) + c * value ** exps[idx]
        return MPoly(self.variables[:idx] + self.variables[idx + 1 :], out)

    def lowest_homogeneous_part(self) -> "MPoly":
        """Sum of the terms of minimal total degree (all variables weight 1)."""
        if not self.terms:
            raise InvalidArgumentError(
                "the zero polynomial has no lowest homogeneous part"
            )
        degrees = list(map(sum, self.terms))
        low = min(degrees)
        return MPoly(
            self.variables,
            {e: c for (e, c), d in zip(self.terms.items(), degrees) if d == low},
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
        if self._ks is not None:
            return _render_subsets(self.variables, self._ks)
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
    object.__setattr__(p, "_ks", None)
    return p


def _subset_terms(ks: list[int], width: int) -> dict[tuple, int]:
    """The terms q^k(A) t^A of a list of k(A) in subset order, the order of
    product((0, 1), repeat=width): the one thing the subset and the
    deletion-contraction routes share."""
    return {(k,) + t: 1 for k, t in zip(ks, product((0, 1), repeat=width))}


def _subset_poly(variables: tuple, ks: list[int]) -> MPoly:
    """The MPoly sum of q^k(A) t^A over the subsets A of the edge variables
    variables[1:], given as ks, the list of k(A) in subset order.  Trusted as
    _mpoly is: the caller guarantees canonical variables with "q" first and
    every k >= 1, so every variable occurs.  terms is built on first read."""
    p = object.__new__(MPoly)
    object.__setattr__(p, "variables", variables)
    object.__setattr__(p, "_hash", None)
    object.__setattr__(p, "_ks", ks)
    return p


def _render_subsets(variables: tuple, ks: list[int]) -> str:
    """render() of a k-list poly.  A subset A is the binary number whose
    high bit is the first edge; one integer ((k + |A|)(K + 1) + k) << E | A
    per subset sorts as (total degree, exponents) does, and each term is the
    q power and two table lookups, one per half of the edges."""
    edges = len(variables) - 1
    top = max(ks) + 1
    keys = [((k + a.bit_count()) * top + k) << edges | a for a, k in enumerate(ks)]
    keys.sort(reverse=True)
    q_text = ["", "q"] + [f"q^{k}" for k in range(2, top)]
    low_width = edges // 2
    split = len(variables) - low_width
    high, low = _factor_table(variables[1:split]), _factor_table(variables[split:])
    mask = (1 << low_width) - 1
    subset = (1 << edges) - 1
    return " + ".join(
        [
            q_text[(x >> edges) % top] + high[(x & subset) >> low_width] + low[x & mask]
            for x in keys
        ]
    )


def _factor_table(names: tuple) -> list[str]:
    """The text "*t1*t2..." of each subset of names, indexed by the subset
    as a binary number whose high bit is the first name."""
    table = [""]
    for name in names:
        table = [s + t for s in table for t in ("", "*" + name)]
    return table


Q = MPoly.var("q")


def edge_var(edge_id: str) -> MPoly:
    """The polynomial variable t<edge_id> attached to an edge."""
    return MPoly.var("t" + str(edge_id))
