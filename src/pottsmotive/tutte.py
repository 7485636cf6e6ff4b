"""The multivariate Tutte polynomial Z_G(q, t) of a multigraph and the
polynomials derived from it: the normalized form, the spanning-forest
(Kirchhoff-type) polynomials, the lowest-degree part and its q-reduced
form, and the connecting/non-connecting split used by the edge-splitting
and edge-doubling class formulas.

Everything here is exact symbolic arithmetic; the subset-sum and the
deletion-contraction routes are independent, so each is the other's oracle.
Z_G has one monomial q^k(A) t^A per edge subset A, and both routes build
the list of k(A) in the order of product((0, 1), repeat=E) (_subset_terms,
in mpoly).  That order is all they share; the tests' surgery recursion and
perfbench's union-find check it.  Their independence lies in how each
computes its list.  The subset routes walk the subsets edge by edge
(`_subsets`), the forest routes the same walk cut at the first cycle.
tutte_delcon never enumerates subsets: it recurses on subgraphs, joins
lists, and memoises them on a structure-only key for one top-level call.
Both routes' Z_G leave as that k-list (mpoly._subset_poly), and so do the
polynomials derived from it by list passes: its q-quotients, its lowest
part and the two halves of the connecting split, where a subset with no
monomial is a hole, and so does leading_part_by_forests, whose list holds
the forests.  Their terms are built on first read; forest_poly and
forest_complement_poly keep their sparse dicts.  Between calls neither
tutte_delcon nor the subset walk keeps anything, except inside a `potts
verify` run (see _runmemo).  Every route refuses a graph with more than
DEFAULT_EDGE_BUDGET edges (check_edge_budget).
"""

from __future__ import annotations

from . import _runmemo
from .errors import InvalidArgumentError, ResourceLimitError
from .mpoly import MPoly, Q, _packed, _subset_poly, var_sort_key
from .multigraph import MultiGraph

DEFAULT_EDGE_BUDGET = 20
# a forest's indicator bytes 0/1 as the ASCII digits of its index
_BINARY = bytes.maketrans(b"\0\1", b"01")


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


def _subsets(vertex_count: int, edges: tuple, acyclic: bool = False) -> list:
    """k(A) for every subset A of `edges`, in the order in which
    product((0, 1), repeat=len(edges)) yields A's indicators, components
    counted on all vertex_count vertices; with `acyclic`, (k(A), indicator
    of A as bytes 0/1) for every forest A, in the same order (_walk).

    Callers only read the list.  Inside a `potts verify` run it is kept,
    keyed by ("walk", vertex_count, edges, acyclic), and a later call with
    an equal key returns the same list until the run ends; outside a run
    every call walks afresh (see _runmemo)."""
    check_edge_budget(len(edges))
    memo = _runmemo.current
    if memo is None:
        return _walk(vertex_count, edges, acyclic)
    key = ("walk", vertex_count, edges, acyclic)
    out = memo.get(key)
    if out is None:
        out = memo[key] = _walk(vertex_count, edges, acyclic)
    return out


def _walk(vertex_count: int, edges: tuple, acyclic: bool) -> list:
    """_subsets' list, built afresh.

    The walk runs edge by edge over states (k, labels).  Only the vertices
    an edge touches get a label, a byte from 2 up (at most 40), so an edge
    merges two labels by one bytes.replace; each untouched vertex stays a
    component.  With `acyclic` it never adds an edge inside a component, so
    it visits exactly the forests (a subset of a forest is one) and spells A
    in bytes 0/1 after the labels."""
    slot: dict[int, int] = {}
    for _, u, v in edges:
        slot.setdefault(u, len(slot))
        slot.setdefault(v, len(slot))
    width = len(slot)
    byte = [bytes((i,)) for i in range(width + 2)]
    bit0, bit1 = (b"\0", b"\1") if acyclic else (b"", b"")
    states = [(vertex_count, bytes(range(2, width + 2)))]
    # i is 0 at the last edge, whose merged labels no later edge reads
    for i, (_, u, v) in enumerate(edges, 1 - len(edges)):
        x, y = slot[u], slot[v]
        grown = []
        for k, labels in states:
            a, b = labels[x], labels[y]
            grown.append((k, labels + bit0))
            if a != b:
                merged = labels.replace(byte[b], byte[a]) if i else labels
                grown.append((k - 1, merged + bit1))
            elif not acyclic:
                grown.append((k, labels))
        states = grown
    if acyclic:
        return [(k, labels[width:]) for k, labels in states]
    return [k for k, _ in states]


def _z_poly(names: tuple, ks: list[int], vertex_count: int) -> MPoly:
    # given a vertex, every subset has k >= 1, so every variable occurs;
    # with no vertex there is no edge and q does not occur
    return _subset_poly(names, ks) if vertex_count else _packed(names, ks)


def tutte_poly(g: MultiGraph) -> MPoly:
    """Z_G(q, t) as the sum over edge subsets A of q^k(A) * prod_{e in A} t_e,
    components counted on the full vertex set."""
    edges = _ordered_edges(g.edges)
    ks = _subsets(g.vertex_count, edges)
    return _z_poly(("q",) + _edge_names(edges), ks, g.vertex_count)


def _canonical(edges, gone: int = -1, keep: int = -1) -> tuple:
    """The edges (u, v) with vertex `gone` merged into `keep`, relabelled
    0, 1, ... in order of first appearance.  Two subgraphs that differ only
    by their vertex labels then have equal tuples."""
    label: dict[int, int] = {}
    out = []
    for u, v in edges:
        if u == gone:
            u = keep
        if v == gone:
            v = keep
        out.append((label.setdefault(u, len(label)), label.setdefault(v, len(label))))
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
    """Z_G by deletion-contraction, built afresh, as the list of k(A) in
    subset order (_subsets' order).

    A subgraph is (n, edges): n vertices and its edges (u, v) in variable
    order, the vertices relabelled in order of first appearance.  The pivot
    is the first edge, the most significant digit, so a subgraph's list is
    its deletion's followed by its contraction's (a loop's: its deletion's
    twice).  The memo is keyed on (n, edges) alone, so subgraphs that differ
    only by labels or variables share one entry, and lives until this call
    returns.  Z_G leaves as the k-list itself (mpoly._subset_poly)."""
    check_edge_budget(g.edge_count)
    edges = _ordered_edges(g.edges)
    memo: dict[tuple, list[int]] = {}

    def z(n: int, packed: tuple) -> list[int]:
        key = (n, packed)
        out = memo.get(key)
        if out is not None:
            return out
        if not packed:
            out = [n]
        else:
            (u, v), rest = packed[0], packed[1:]
            deleted = z(n, _canonical(rest))
            # a loop contracts to its deletion
            out = deleted + (deleted if u == v else z(n - 1, _canonical(rest, v, u)))
        memo[key] = out
        return out

    ks = z(g.vertex_count, _canonical((u, v) for _, u, v in edges))
    memo.clear()  # z's closure keeps the memo alive until a collection
    return _z_poly(("q",) + _edge_names(edges), ks, g.vertex_count)


def normalized_tutte(g: MultiGraph) -> MPoly:
    """Z_G divided by q^k(G) (exact)."""
    return tutte_delcon(g).divide_exact_by_q_power(g.components())


def _forests(g: MultiGraph):
    """The edges in variable order, and (k(A), indicator of A) for every
    acyclic edge subset A, viewed on the full vertex set."""
    edges = _ordered_edges(g.edges)
    return edges, _subsets(g.vertex_count, edges, acyclic=True)


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
    (every acyclic subset contributes degree V, everything else more).  It
    leaves as the k-list with k(A) at each forest A, whose indicator read
    in binary is its index, and a hole at every other subset."""
    edges, forests = _forests(g)
    ks = [-1] * (1 << len(edges))
    for k, chosen in forests:
        ks[int(chosen.translate(_BINARY) or b"0", 2)] = k
    return _packed(("q",) + _edge_names(edges), ks)


def reduced_leading_part(g: MultiGraph) -> MPoly:
    """leading_part divided by q^k(G); q no longer divides the result, and
    its q = 0 slice is forest_poly."""
    return leading_part(g).divide_exact_by_q_power(g.components())


def connecting_split(g: MultiGraph, edge_id: str) -> tuple[MPoly, MPoly]:
    """Split the subset sum over A in E - {e} into the part where A connects
    the endpoints of e and the part where it does not.

    With (Zc, Zn) the return value: Z_{G-e} = Zc + Zn and
    Z_{G/e} = Zc + Zn/q, both exactly.  Each half is the k-list of
    Z_{G-e} with the other half's subsets as holes; an edge parallel to e
    never occurs in Zn, and Zc is 0 when e is a bridge.
    """
    u, v = g.endpoints(edge_id)
    if u == v:
        raise InvalidArgumentError("the connecting split needs a non-loop edge")
    rest = _ordered_edges(e for e in g.edges if e[0] != edge_id)
    ks = _subsets(g.vertex_count, rest + ((edge_id, u, v),))
    # each A in E - {e} comes right before A + {e}; adding e leaves the
    # component count unchanged exactly when A already connects u and v
    without, with_e = ks[::2], ks[1::2]
    connecting = [k if k == w else -1 for k, w in zip(without, with_e)]
    non_connecting = [-1 if k == w else k for k, w in zip(without, with_e)]
    names = ("q",) + _edge_names(rest)
    return _packed(names, connecting), _packed(names, non_connecting)


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
