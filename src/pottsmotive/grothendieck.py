"""Grothendieck classes of partition-polynomial hypersurface complements:
the deletion-contraction identity, the edge-splitting and edge-doubling
recursions with their exponential closed forms, the polygon and banana
families with their chained versions, and the fibration-condition reduction
between variable-q and fixed-q classes.

Every class is a polynomial in the torus class T; {X} always means the class
of the complement of X in the affine space named by the accompanying ambient
dimension.  The point-counting oracle is the independent check for all of
this; functions here are pure class algebra except where they explicitly
take counting parameters.

The fixed-q block classes of the two families are kept once each: a chain
class is only the block to the n-th power shifted by T^{k(n-1)}, and a chi
grid builds every row of one m from the same block.  The memo holds the
last _BLOCKS blocks and no more, since m is unbounded and each block has
m + 2 coefficients; the chi command walks m outermost, so a small bound
already serves every row.  The public functions stay plain functions that
call private lru_cache helpers: perfbench's tracer wraps only plain
functions, and a decorated entry point would drop out of its counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, mul
from typing import Sequence

from .classpoly import T, ClassPoly, RationalClass
from .errors import InvalidArgumentError
from .multigraph import FamilySpec, MultiGraph
from .pointcount import complement_class, locus_complement_class
from .tutte import tutte_delcon

_L = T + 1


@dataclass(frozen=True)
class SplitSeeds:
    """Classes of the first three members of an edge-splitting family:
    the contraction, the graph itself, and the single split."""

    s0: ClassPoly
    s1: ClassPoly
    s2: ClassPoly


@dataclass(frozen=True)
class DoubleSeeds:
    """Classes of a graph and of the same graph with one doubled edge."""

    d0: ClassPoly
    d1: ClassPoly


# -- one-step formulas -----------------------------------------------------------


def split_step(
    z_g: ClassPoly,
    z_contract: ClassPoly,
    z_delete: ClassPoly,
    residual: ClassPoly,
) -> ClassPoly:
    """Class of the single-split graph from the classes of the graph, its
    contraction, its deletion, and the residual locus on the t_e = -q slice:
    (T-2)*{G} + (T-1)*{G/e} + (T+1)*({G-e} + {residual})."""
    return (T - 2) * z_g + (T - 1) * z_contract + (T + 1) * (z_delete + residual)


def double_step(z_g: ClassPoly, residual: ClassPoly) -> ClassPoly:
    """Class of the doubled-edge graph: T*{G} + (T+1)*{residual}; the
    residual class is 0 when the edge is a loop."""
    return T * z_g + (T + 1) * residual


def residual_class_from_seeds(seeds: SplitSeeds, z_delete: ClassPoly) -> ClassPoly:
    """Recover the splitting residual class from the three splitting classes:
    ({s2} - (T-2)*{s1} - (T-1)*{s0}) / (T+1) - {G-e}, the division exact."""
    combined = (seeds.s2 - (T - 2) * seeds.s1 - (T - 1) * seeds.s0).divexact(T + 1)
    return combined - z_delete


# -- linear recurrences and closed forms -------------------------------------------


def linear_recurrence(
    coeffs: Sequence[ClassPoly], seeds: Sequence[ClassPoly], m: int
) -> ClassPoly:
    """m-th term of the recurrence x[n+k] = c[0]x[n] + ... + c[k-1]x[n+k-1]
    with coeffs (c[0], ..., c[k-1]) and first terms seeds (x[0], ..., x[k-1])."""
    if m < 0:
        raise InvalidArgumentError("negative recurrence index")
    window = list(seeds)
    if m < len(window):
        return window[m]
    for _ in range(m - len(window) + 1):
        window = window[1:] + [reduce(add, map(mul, coeffs, window))]
    return window[-1]


_SPLIT_COEFFS = (-(T * (T - 1)), -(T * T - 3 * T + 1), 2 * T - 2)


def split_recursion(seeds: SplitSeeds, m: int) -> ClassPoly:
    """m-th class of the splitting family by the order-3 recurrence
    x[m+3] = (2T-2)x[m+2] - (T^2-3T+1)x[m+1] - T(T-1)x[m]."""
    return linear_recurrence(_SPLIT_COEFFS, (seeds.s0, seeds.s1, seeds.s2), m)


def _split_numerators(seeds: SplitSeeds) -> tuple[ClassPoly, ClassPoly, ClassPoly]:
    """Numerators of (A, B, C) over the denominators (T(T+1), T+1, T)."""
    s0, s1, s2 = seeds.s0, seeds.s1, seeds.s2
    a_num = s0 * T * (T + 1) + (s2 + s1) * (T + 1) - (s2 + 3 * s1 + 2 * s0) * T
    b_num = -(s1 + s0) * (T + 1) + (s2 + 3 * s1 + 2 * s0)
    c_num = (s1 + s0) * T - (s2 + s1)
    return a_num, b_num, c_num


def split_closed_form(
    seeds: SplitSeeds,
) -> tuple[RationalClass, RationalClass, RationalClass]:
    """Coefficients (A, B, C) of the exponential solution
    term(m) = A(-1)^m + B T^m + C (T-1)^m of the splitting recurrence.
    They are exact ratios; for some seed triples (e.g. polygons) A and C are
    genuinely non-polynomial even though every term(m) is a class."""
    a_num, b_num, c_num = _split_numerators(seeds)
    return (
        RationalClass(a_num, T * (T + 1)),
        RationalClass(b_num, T + 1),
        RationalClass(c_num, T),
    )


def split_closed_term(seeds: SplitSeeds, m: int) -> ClassPoly:
    """term(m) of the exponential solution, evaluated exactly (the common
    denominator T(T+1) divides out for every m)."""
    if m < 0:
        raise InvalidArgumentError("negative splitting index")
    a_num, b_num, c_num = _split_numerators(seeds)
    num = (
        a_num * (-1) ** m
        + b_num * ClassPoly.monomial(m + 1)
        + c_num * (T + 1) * (T - 1) ** m
    )
    return num.divexact(T * (T + 1))


def double_closed_form(seeds: DoubleSeeds, m: int) -> ClassPoly:
    """m-th class of the doubling family:
    ((T+1)d0 - d1) T^m + (d1 - T d0)(T+1)^m; satisfies
    x[m+2] = (2T+1)x[m+1] - T(T+1)x[m]."""
    if m < 0:
        raise InvalidArgumentError("negative doubling index")
    d0, d1 = seeds.d0, seeds.d1
    return ((T + 1) * d0 - d1) * ClassPoly.monomial(m) + (d1 - T * d0) * (T + 1) ** m


# -- families ---------------------------------------------------------------------


def polygon_class(m: int) -> ClassPoly:
    """Variable-q class of the complement for the (m+1)-sided polygon:
    T^{m+2} + T(T-1)(T^m - (T-1)^m) + (T-1)((T-1)^m - (-1)^m)/T."""
    if m < 0:
        raise InvalidArgumentError("negative polygon index")
    head = ClassPoly.monomial(m + 2)
    power = (T - 1) ** m
    mid = T * (T - 1) * (ClassPoly.monomial(m) - power)
    tail = (T - 1) * (power - (-1) ** m).divexact(T)
    return head + mid + tail


def polygon_class_fixed_q(m: int) -> ClassPoly:
    """Fixed-q (q not 0 or 1) class for the (m+1)-sided polygon:
    T^{m+1} + T(T^m - (T-1)^m) + ((T-1)^m - (-1)^m)/T."""
    if m < 0:
        raise InvalidArgumentError("negative polygon index")
    return _polygon_block(m)


def banana_class(m: int) -> ClassPoly:
    """Variable-q class for the (m+1)-banana: T^m + (T-1)(T+1)^{m+1}."""
    if m < 0:
        raise InvalidArgumentError("negative banana index")
    return ClassPoly.monomial(m) + (T - 1) * (T + 1) ** (m + 1)


def banana_class_fixed_q(m: int) -> ClassPoly:
    """Fixed-q class for the (m+1)-banana: (T+1)^{m+1} - T^m."""
    if m < 0:
        raise InvalidArgumentError("negative banana index")
    return _banana_block(m)


# blocks kept per family; a chi grid needs one at a time.  Typed keys keep
# 2.0 from being served the block of 2.
_BLOCKS = 16


@lru_cache(maxsize=_BLOCKS, typed=True)
def _polygon_block(m: int) -> ClassPoly:
    head = ClassPoly.monomial(m + 1)
    power = (T - 1) ** m
    mid = T * (ClassPoly.monomial(m) - power)
    tail = (power - (-1) ** m).divexact(T)
    return head + mid + tail


@lru_cache(maxsize=_BLOCKS, typed=True)
def _banana_block(m: int) -> ClassPoly:
    return (T + 1) ** (m + 1) - ClassPoly.monomial(m)


def chain_polygon_class_fixed_q(spec: FamilySpec) -> ClassPoly:
    """Fixed-q class of the polygon chain: one block class to the n-th power
    times T^{k(n-1)} for the connector edges."""
    return (polygon_class_fixed_q(spec.m) ** spec.n).scale_T_power(
        spec.k * (spec.n - 1)
    )


def chain_banana_class_fixed_q(spec: FamilySpec) -> ClassPoly:
    """Fixed-q class of the banana chain: ((T+1)^{m+1} - T^m)^n T^{k(n-1)}."""
    return (banana_class_fixed_q(spec.m) ** spec.n).scale_T_power(
        spec.k * (spec.n - 1)
    )


POLYGON_SEEDS = SplitSeeds(
    polygon_class(0), polygon_class(1), polygon_class(2)
)


# -- structural identities -----------------------------------------------------------


def fibration_reduce(z_g: ClassPoly, edge_count: int) -> ClassPoly:
    """({Z_G} - T^{edges}) / (T-1): the fixed-q class under the fibration
    condition.  A nonzero remainder means the condition fails for this class
    and surfaces as an exact-division-failure."""
    return (z_g - ClassPoly.monomial(edge_count)).divexact(T - 1)


def disjoint_union_class(
    z1: ClassPoly, e1: int, z2: ClassPoly, e2: int
) -> ClassPoly:
    """Variable-q class of a disjoint union of two graphs satisfying the
    fibration condition:
    (z1 z2 - T^{e1} z2 - T^{e2} z1 + T^{e1+e2+1}) / (T-1)."""
    fibration_reduce(z1, e1)
    fibration_reduce(z2, e2)
    num = (
        z1 * z2
        - z2.scale_T_power(e1)
        - z1.scale_T_power(e2)
        + ClassPoly.monomial(e1 + e2 + 1)
    )
    return num.divexact(T - 1)


def join_transform(z: ClassPoly, kind: str) -> ClassPoly:
    """Effect of joining constructions on a class: a vertex join leaves it
    unchanged, a bridge join or an appended (looping or not) edge multiplies
    by T.  Same multipliers in the variable-q and fixed-q pictures."""
    if kind == "vertex-join":
        return z
    if kind in ("bridge-join", "append-edge"):
        return T * z
    raise InvalidArgumentError(f"unknown join kind {kind!r}")


def delcon_identity_check(g: MultiGraph, edge_id: str) -> bool:
    """Oracle check of the class-level deletion-contraction identity
    {Z_G} = L * {Z_{G/e} and Z_{G-e} intersection} - {Z_{G/e}}, with the
    intersection complement taken one dimension lower."""
    dim = g.edge_count
    z_g = complement_class(tutte_delcon(g), dim + 1)
    z_con = tutte_delcon(g.contract_edge(edge_id))
    inter = locus_complement_class(
        [tutte_delcon(g.delete_edge(edge_id)), z_con], dim
    )
    return z_g == _L * inter - complement_class(z_con, dim)


def graph_class(g: MultiGraph) -> ClassPoly:
    """Oracle class {Z_G} of a graph's hypersurface complement."""
    return complement_class(tutte_delcon(g), g.edge_count + 1)
