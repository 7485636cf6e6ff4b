"""The multivariate Tutte polynomial Z_G(q, t) of a multigraph and the
polynomials derived from it: the normalized form, the spanning-forest
(Kirchhoff-type) polynomials, the lowest-degree part and its q-reduced
form, and the connecting/non-connecting split used by the edge-splitting
and edge-doubling class formulas.

Everything here is exact symbolic arithmetic; the subset-sum and the
deletion-contraction routes are kept as independent implementations so each
can serve as the oracle for the other.  They share no enumeration code: the
subset routes walk every edge subset once (`_subsets`), while tutte_delcon
recurses on subgraphs and never enumerates subsets.  Each route builds its
terms in one dict and makes one polynomial at the end: the subset routes,
the reference, through the validating MPoly(...), and tutte_delcon through
the trusted mpoly._mpoly.  tutte_delcon works on
packed subgraphs, a vertex count and a tuple of (bit, u, v) ints with the
vertices relabelled in order of first appearance, pivots on the first edge,
and memoises its subgraphs on that canonical key for the length of one
top-level call.  Between calls it keeps nothing, except inside a `potts
verify` run, which shares each graph's Z_G among its checks until the run
ends (see _runmemo).  Both refuse a graph with more than
DEFAULT_EDGE_BUDGET edges (check_edge_budget).
"""

from __future__ import annotations

from . import _runmemo
from .errors import InvalidArgumentError, ResourceLimitError
from .mpoly import MPoly, Q, _mpoly, var_sort_key
from .multigraph import MultiGraph

DEFAULT_EDGE_BUDGET = 20


def check_edge_budget(edge_count: int) -> None:
    """Refuse a graph whose polynomials are too large to build symbolically:
    every route to Z_G and its derived polynomials has 2^edges terms to
    visit."""
    if edge_count > DEFAULT_EDGE_BUDGET:
        raise ResourceLimitError(
            f"{edge_count} edges exceeds the symbolic budget of {DEFAULT_EDGE_BUDGET}"
        )


def _ordered_edges(edges) -> tuple:
    """The edges sorted so that their variables t<id> are in canonical order."""
    return tuple(sorted(edges, key=lambda e: var_sort_key("t" + e[0])))


def _edge_names(edges) -> tuple[str, ...]:
    return tuple("t" + eid for eid, _, _ in edges)


def _subsets(vertex_count: int, edges) -> list[tuple[int, tuple]]:
    """(k(A), indicator of A) for every subset A of `edges`: k(A) counts the
    components of the spanning subgraph on all vertex_count vertices, and
    the indicator is the 0/1 tuple of A over `edges`.

    The walk is depth-first and carries the component labels along, so a
    subset costs one relabelling instead of a fresh component count.  An
    edge is left out before it is put in, so the subsets without and with
    the last edge come in adjacent pairs."""
    check_edge_budget(len(edges))
    out = []

    def walk(i: int, k: int, labels: tuple, chosen: tuple) -> None:
        if i == len(edges):
            out.append((k, chosen))
            return
        walk(i + 1, k, labels, chosen + (0,))
        _, u, v = edges[i]
        a, b = labels[u], labels[v]
        if a != b:
            labels = tuple(a if x == b else x for x in labels)
            k -= 1
        walk(i + 1, k, labels, chosen + (1,))

    walk(0, vertex_count, tuple(range(vertex_count)), ())
    return out


def tutte_poly(g: MultiGraph) -> MPoly:
    """Z_G(q, t) as the sum over edge subsets A of q^k(A) * prod_{e in A} t_e,
    components counted on the full vertex set."""
    edges = _ordered_edges(g.edges)
    terms = {(k,) + chosen: 1 for k, chosen in _subsets(g.vertex_count, edges)}
    return MPoly(("q",) + _edge_names(edges), terms)


def _indicators(width: int) -> list[tuple]:
    """The 0/1 tuple of every mask below 2^width (bit i at position i),
    indexed by the mask."""
    table = [()]
    for _ in range(width):
        table = [t + (0,) for t in table] + [t + (1,) for t in table]
    return table


def _canonical(edges, gone: int = -1, keep: int = -1) -> tuple:
    """The packed edges with vertex `gone` merged into `keep`, relabelled
    0, 1, ... in order of first appearance.  Two subgraphs that differ only
    by their vertex labels then have equal tuples."""
    label: dict[int, int] = {}
    out = []
    for b, u, v in edges:
        if u == gone:
            u = keep
        if v == gone:
            v = keep
        u = label.setdefault(u, len(label))
        out.append((b, u, label.setdefault(v, len(label))))
    return tuple(out)


def tutte_delcon(g: MultiGraph) -> MPoly:
    """Z_G(q, t) by deletion-contraction on the first edge.  Must agree with
    tutte_poly on every graph.

    Each call builds Z_G afresh, except inside a `potts verify` run: there
    the first call for a graph value keeps its Z_G, and later calls for an
    equal graph return that same (immutable) polynomial until the run ends.
    Keeping it for longer would hold every graph's terms for the life of the
    process; see _runmemo."""
    memo = _runmemo.current
    if memo is None:
        return _delcon(g)
    key = ("z", g)
    z = memo.get(key)
    if z is None:
        z = memo[key] = _delcon(g)
    return z


def _delcon(g: MultiGraph) -> MPoly:
    """Z_G by deletion-contraction, built afresh.

    A subgraph is (n, edges): n vertices, and its edges as (bit, u, v) ints
    in g.edges order, bit the edge's mask bit (its place in variable order)
    and the vertices relabelled in order of first appearance.  The recursion
    maps each subgraph to its terms {k << E | edge mask: 1} and memoises on
    (n, edges) until this call returns, so subgraphs that differ only by
    vertex labels share one entry.  Deletion-contraction holds for every
    edge of the multivariate Z, so the pivot is always the first edge; a
    loop's deletion and contraction are the same subgraph."""
    check_edge_budget(g.edge_count)
    edges = _ordered_edges(g.edges)
    width = len(edges)
    bit = {eid: 1 << i for i, (eid, _, _) in enumerate(edges)}
    memo: dict[tuple, dict[int, int]] = {}

    def z(n: int, packed: tuple) -> dict[int, int]:
        key = (n, packed)
        out = memo.get(key)
        if out is not None:
            return out
        if not packed:
            out = {n << width: 1}
        else:
            (b, u, v), rest = packed[0], packed[1:]
            deleted = z(n, _canonical(rest))
            # a loop contracts to its deletion
            contracted = deleted if u == v else z(n - 1, _canonical(rest, v, u))
            out = dict(deleted)
            # only the contracted side holds the pivot, so no key is shared
            out.update({m | b: c for m, c in contracted.items()})
        memo[key] = out
        return out

    top = z(g.vertex_count, _canonical((bit[eid], u, v) for eid, u, v in g.edges))
    memo.clear()  # free the subgraphs' terms before the tuples are built
    # a mask's 0/1 tuple is the join of its two halves' tuples, looked up
    half = width // 2
    low, high = _indicators(half), _indicators(width - half)
    low_mask = (1 << half) - 1
    high_mask = (1 << width - half) - 1
    terms = {
        (key >> width,) + low[key & low_mask] + high[key >> half & high_mask]: c
        for key, c in top.items()
    }
    names = ("q",) + _edge_names(edges)
    # every edge lies in some subset and, given a vertex, every subset has
    # k >= 1, so every variable occurs; with no vertex q does not occur
    return _mpoly(names, terms) if g.vertex_count else MPoly(names, terms)


def normalized_tutte(g: MultiGraph) -> MPoly:
    """Z_G divided by q^k(G) (exact)."""
    return tutte_delcon(g).divide_exact_by_q_power(g.components())


def _forests(g: MultiGraph):
    """The edges in variable order, and (k(A), indicator of A) for every
    acyclic edge subset A, viewed on the full vertex set."""
    edges = _ordered_edges(g.edges)
    nv = g.vertex_count
    forests = [
        (k, chosen) for k, chosen in _subsets(nv, edges) if k + sum(chosen) == nv
    ]
    return edges, forests


def forest_poly(g: MultiGraph) -> MPoly:
    """Sum over maximal spanning forests of the product of the forest's edge
    variables (the q = 0 graph polynomial)."""
    edges, forests = _forests(g)
    base = g.components()
    terms = {chosen: 1 for k, chosen in forests if k == base}
    return MPoly(_edge_names(edges), terms)


def forest_poly_from_tutte(g: MultiGraph) -> MPoly:
    """Independent route to forest_poly: normalize Z, set q = 0, then take
    the lowest homogeneous part."""
    sliced = normalized_tutte(g).substitute("q", 0)
    return sliced.lowest_homogeneous_part()


def forest_complement_poly(g: MultiGraph) -> MPoly:
    """Sum over maximal spanning forests of the product of the variables of
    the edges outside the forest."""
    edges, forests = _forests(g)
    base = g.components()
    terms = {tuple(1 - x for x in chosen): 1 for k, chosen in forests if k == base}
    return MPoly(_edge_names(edges), terms)


def forest_complement_from_dual(g: MultiGraph) -> MPoly:
    """forest_complement_poly recovered from forest_poly by the monomial
    reversal t_e -> 1/t_e with denominators cleared."""
    phi = forest_poly(g)
    names = tuple("t" + eid for eid in g.edge_ids())
    pos = {n: i for i, n in enumerate(names)}
    out = {}
    for exps, c in phi.terms.items():
        full = [1] * len(names)
        for name, e in zip(phi.variables, exps):
            full[pos[name]] -= e
        out[tuple(full)] = out.get(tuple(full), 0) + c
    return MPoly(names, out)


def leading_part(g: MultiGraph) -> MPoly:
    """Lowest-degree homogeneous part of Z_G; homogeneous of degree V(G)."""
    return tutte_delcon(g).lowest_homogeneous_part()


def leading_part_by_forests(g: MultiGraph) -> MPoly:
    """Independent route to leading_part: the sum over all spanning forests
    (every acyclic subset contributes degree V, everything else more)."""
    edges, forests = _forests(g)
    terms = {(k,) + chosen: 1 for k, chosen in forests}
    return MPoly(("q",) + _edge_names(edges), terms)


def reduced_leading_part(g: MultiGraph) -> MPoly:
    """leading_part divided by q^k(G); q no longer divides the result, and
    its q = 0 slice is forest_poly."""
    return leading_part(g).divide_exact_by_q_power(g.components())


def connecting_split(g: MultiGraph, edge_id: str) -> tuple[MPoly, MPoly]:
    """Split the subset sum over A in E - {e} into the part where A connects
    the endpoints of e and the part where it does not.

    With (Zc, Zn) the return value: Z_{G-e} = Zc + Zn and
    Z_{G/e} = Zc + Zn/q, both exactly.
    """
    u, v = g.endpoints(edge_id)
    if u == v:
        raise InvalidArgumentError("the connecting split needs a non-loop edge")
    rest = _ordered_edges(e for e in g.edges if e[0] != edge_id)
    subsets = _subsets(g.vertex_count, rest + ((edge_id, u, v),))
    connecting: dict = {}
    non_connecting: dict = {}
    # each A in E - {e} comes right before A + {e}; adding e leaves the
    # component count unchanged exactly when A already connects u and v
    for (k, chosen), (k_with, _) in zip(subsets[::2], subsets[1::2]):
        side = connecting if k_with == k else non_connecting
        side[(k,) + chosen[:-1]] = 1
    names = ("q",) + _edge_names(rest)
    return MPoly(names, connecting), MPoly(names, non_connecting)


def split_residual_poly(g: MultiGraph, edge_id: str) -> MPoly:
    """(1 - q) * Zc, the defining polynomial (in q and the other edge
    variables) of the residual locus in the edge-splitting class formula;
    equals Z_{G-e} - q * Z_{G/e}."""
    connecting, _ = connecting_split(g, edge_id)
    return (MPoly.const(1) - Q) * connecting


def doubling_residual_poly(g: MultiGraph, edge_id: str) -> MPoly:
    """Z_{G-e} - Z_{G/e} = (q - 1) * Zn / q, the defining polynomial of the
    residual locus in the edge-doubling class formula; identically 0 for a
    loop."""
    u, v = g.endpoints(edge_id)
    if u == v:
        return MPoly.zero()
    return tutte_delcon(g.delete_edge(edge_id)) - tutte_delcon(
        g.contract_edge(edge_id)
    )
