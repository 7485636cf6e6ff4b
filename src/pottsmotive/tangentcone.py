"""Classes of the tangent cone at the origin of the partition-polynomial
hypersurface: the cone's defining polynomials, the complement classes of the
cone and of its two pieces (the q-reduced component and its q = 0 slice),
the bridge/loop and parallel-edge multipliers, the splitting identity for a
regular edge, and the order-3 recurrence of the q = 0 slice with its
exponential closed form.  The cone classes of a splitting family obey the
full-class splitting recurrence, so grothendieck's split_recursion,
split_closed_form and split_closed_term serve them unchanged.

Ambient conventions, fixed throughout: the cone and its q-reduced component
live in dimension edges + 1; the q = 0 slice lives in dimension edges.
"""

from __future__ import annotations

from .classpoly import T, ClassPoly, RationalClass
from .errors import InvalidArgumentError
from .grothendieck import SplitSeeds, linear_recurrence
from .mpoly import MPoly, Q
from .multigraph import EdgeKind, MultiGraph
from .pointcount import complement_class, locus_complement_class
from .tutte import leading_part, reduced_leading_part


def cone_polys(g: MultiGraph) -> tuple[MPoly, MPoly, MPoly]:
    """(P, Q, Y): the lowest-degree part of Z_G, its q-reduced form, and the
    q = 0 slice of the latter (which equals the spanning-forest polynomial)."""
    p = leading_part(g)
    q_red = reduced_leading_part(g)
    y = q_red.substitute("q", 0)
    return p, q_red, y


def v_class(g: MultiGraph) -> ClassPoly:
    """Oracle class of the complement of the tangent cone (ambient edges+1)."""
    return complement_class(leading_part(g), g.edge_count + 1)


def w_class(g: MultiGraph) -> ClassPoly:
    """Oracle class of the complement of the q-reduced component (ambient
    edges+1)."""
    return complement_class(reduced_leading_part(g), g.edge_count + 1)


def y_class(g: MultiGraph) -> ClassPoly:
    """Oracle class of the complement of the q = 0 slice (ambient edges)."""
    y = reduced_leading_part(g).substitute("q", 0)
    return complement_class(y, g.edge_count)


def cone_edge_rule(c: ClassPoly, kind: EdgeKind) -> ClassPoly:
    """Multiplier rules for the cone class: attaching a loop (or an edge
    parallel to an existing one) multiplies by T+1; a bridge multiplies by T.
    Regular edges need the splitting identity instead."""
    if kind is EdgeKind.LOOP:
        return (T + 1) * c
    if kind is EdgeKind.BRIDGE:
        return T * c
    raise InvalidArgumentError("no single multiplier for a regular edge")


def cone_split_scale(c: ClassPoly, m: int) -> ClassPoly:
    """Iterated splitting of a bridge or loop multiplies the cone class by
    T^m."""
    if m < 0:
        raise InvalidArgumentError("negative splitting count")
    return c.scale_T_power(m)


def split_residual_cone_poly(g: MultiGraph, edge_id: str) -> MPoly:
    """Q_{G-e} - q*Q_{G/e}, the cone analogue of the splitting residual,
    computed by polynomial subtraction."""
    q_del = reduced_leading_part(g.delete_edge(edge_id))
    q_con = reduced_leading_part(g.contract_edge(edge_id))
    return q_del - Q * q_con


def cone_split_check(g: MultiGraph, edge_id: str) -> bool:
    """Oracle check of the cone class identity for splitting a regular edge:

    {V after split} = (T-2){V_G} + (T-1){V_{G/e}}
                      + (T+1)({V_{G-e}} + {V(Q_{G-e} - q Q_{G/e})} - {Y_{G-e}})

    (the {Y_{G-e}} correction is required; dropping it is off by exactly
    (T+1){Y_{G-e}}, as a two-point field check already shows).
    """
    if g.classify_edge(edge_id) is not EdgeKind.REGULAR:
        raise InvalidArgumentError("the splitting identity needs a regular edge")
    dim = g.edge_count
    lhs = v_class(g.split_edge(edge_id, 2))
    deleted = g.delete_edge(edge_id)
    residual = locus_complement_class([split_residual_cone_poly(g, edge_id)], dim)
    rhs = (
        (T - 2) * v_class(g)
        + (T - 1) * v_class(g.contract_edge(edge_id))
        + (T + 1) * (v_class(deleted) + residual - y_class(deleted))
    )
    return lhs == rhs


# -- recurrences ---------------------------------------------------------------

_Y_COEFFS = (-(T * T), -(T * (T - 2)), 2 * T - 1)


def cone_split_recursion_y(seeds: SplitSeeds, m: int) -> ClassPoly:
    """m-th q = 0 slice class of a regular-edge splitting family:
    x[m+3] = (2T-1)x[m+2] - T(T-2)x[m+1] - T^2 x[m]."""
    return linear_recurrence(_Y_COEFFS, (seeds.s0, seeds.s1, seeds.s2), m)


def _y_numerators(seeds: SplitSeeds) -> tuple[ClassPoly, ClassPoly, ClassPoly]:
    """Numerators of (A, B, C) over the denominators ((T+1)^2, T+1, (T+1)^2)."""
    y0, y1, y2 = seeds.s0, seeds.s1, seeds.s2
    tp1 = T + 1
    s = y2 + 2 * y1 + y0
    a_num = y0 * tp1 * tp1 - 2 * (y1 + y0) * tp1 + s
    b_num = -(y1 + y0) * tp1 + s
    c_num = 2 * (y1 + y0) * tp1 - s
    return a_num, b_num, c_num


def cone_closed_form_y(
    seeds: SplitSeeds,
) -> tuple[RationalClass, RationalClass, RationalClass]:
    """Exponential coefficients (A, B, C) of the q = 0 slice solution
    term(m) = A(-1)^m + B m T^{m-1} + C T^m, exact over the denominator
    (T+1)^2."""
    a_num, b_num, c_num = _y_numerators(seeds)
    tp1 = T + 1
    return (
        RationalClass(a_num, tp1 * tp1),
        RationalClass(b_num, tp1),
        RationalClass(c_num, tp1 * tp1),
    )


def cone_closed_term_y(seeds: SplitSeeds, m: int) -> ClassPoly:
    """term(m) of the q = 0 slice solution, evaluated exactly."""
    if m < 0:
        raise InvalidArgumentError("negative splitting index")
    a_num, b_num, c_num = _y_numerators(seeds)
    tp1 = T + 1
    ramp = ClassPoly.monomial(m - 1, m) if m >= 1 else ClassPoly.zero()
    num = a_num * (-1) ** m + b_num * tp1 * ramp + c_num * ClassPoly.monomial(m)
    return num.divexact(tp1 * tp1)


# -- polygon family -------------------------------------------------------------


POLYGON_CONE_SEEDS = SplitSeeds(
    T * (T + 1),
    T * T * (T + 1),
    T * (T + 1) * (T * T + T - 1),
)


def polygon_cone_class(m: int) -> ClassPoly:
    """Cone complement class of the (m+1)-sided polygon:
    (T-1)(-1)^m + 2T^{m+2} - (T+1)(T-1)^{m+1}."""
    if m < 0:
        raise InvalidArgumentError("negative polygon index")
    return (
        (T - 1) * (-1) ** m
        + 2 * ClassPoly.monomial(m + 2)
        - (T + 1) * (T - 1) ** (m + 1)
    )


def banana_cone_class(m: int) -> ClassPoly:
    """Cone complement class of the (m+1)-banana: each added parallel edge
    multiplies by T+1, starting from T^2 for a single edge."""
    if m < 0:
        raise InvalidArgumentError("negative banana index")
    return (T * T) * (T + 1) ** m
