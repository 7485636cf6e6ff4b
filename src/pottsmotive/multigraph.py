"""Finite multigraphs with stable edge ids, and the edge surgeries used by
the partition-polynomial recursions: deletion, contraction, splitting an edge
into a chain, and adding parallel copies.

Edge ids are arbitrary string tokens that survive unchanged through surgery
on other edges; they name the polynomial variables, so identity matters.
Vertices are dense indices 0..V-1, renumbered canonically after contraction
(the merge keeps the smaller index).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import EdgeNotFoundError, InvalidParameterError


class EdgeKind(enum.Enum):
    BRIDGE = "bridge"
    LOOP = "loop"
    REGULAR = "regular"


@dataclass(frozen=True)
class FamilySpec:
    """Parameters of a chained family: block size index m, connector chain
    length k, number of blocks n."""

    m: int
    k: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.k < 0 or self.n < 1:
            raise InvalidParameterError(f"invalid family parameters {self}")

    @property
    def edge_count(self) -> int:
        return self.n * (self.m + 1) + self.k * (self.n - 1)


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def component_count(vertex_count: int, pairs) -> int:
    """Connected components of the spanning subgraph on all vertices."""
    parent = list(range(vertex_count))
    n = vertex_count
    for u, v in pairs:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            n -= 1
    return n


@dataclass(frozen=True)
class MultiGraph:
    """Immutable multigraph; loops and parallel edges allowed."""

    vertex_count: int
    edges: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple((str(e), int(u), int(v)) for e, u, v in self.edges)
        )
        if self.vertex_count < 0:
            raise InvalidParameterError("negative vertex count")
        seen = set()
        for eid, u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise InvalidParameterError(
                    f"edge {eid!r} endpoint out of range for {self.vertex_count} vertices"
                )
            if eid in seen:
                raise InvalidParameterError(f"duplicate edge id {eid!r}")
            seen.add(eid)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e for e, _, _ in self.edges)

    def endpoints(self, edge_id: str) -> tuple[int, int]:
        for eid, u, v in self.edges:
            if eid == edge_id:
                return u, v
        raise EdgeNotFoundError(edge_id)

    def has_edge(self, edge_id: str) -> bool:
        return any(eid == edge_id for eid, _, _ in self.edges)

    def endpoint_pairs(self):
        return [(u, v) for _, u, v in self.edges]

    def components(self) -> int:
        return component_count(self.vertex_count, self.endpoint_pairs())

    def classify_edge(self, edge_id: str) -> EdgeKind:
        u, v = self.endpoints(edge_id)
        if u == v:
            return EdgeKind.LOOP
        rest = [(a, b) for eid, a, b in self.edges if eid != edge_id]
        if component_count(self.vertex_count, rest) > self.components():
            return EdgeKind.BRIDGE
        return EdgeKind.REGULAR

    # -- surgeries ----------------------------------------------------------

    def delete_edge(self, edge_id: str) -> "MultiGraph":
        if not self.has_edge(edge_id):
            raise EdgeNotFoundError(edge_id)
        return MultiGraph(
            self.vertex_count, tuple(e for e in self.edges if e[0] != edge_id)
        )

    def contract_edge(self, edge_id: str) -> "MultiGraph":
        """Merge the endpoints and drop the edge; a loop contracts as a
        deletion (the convention forced by the deletion-contraction relation)."""
        u, v = self.endpoints(edge_id)
        if u == v:
            return self.delete_edge(edge_id)
        keep, gone = min(u, v), max(u, v)

        def renum(w: int) -> int:
            if w == gone:
                w = keep
            return w - 1 if w > gone else w

        edges = tuple(
            (eid, renum(a), renum(b)) for eid, a, b in self.edges if eid != edge_id
        )
        return MultiGraph(self.vertex_count - 1, edges)

    def split_edge(self, edge_id: str, m: int) -> "MultiGraph":
        """Replace the edge by a chain of m edges (m = 1 is the identity,
        m = 0 the contraction)."""
        if m < 0:
            raise InvalidParameterError("negative chain length")
        if not self.has_edge(edge_id):
            raise EdgeNotFoundError(edge_id)
        if m == 0:
            return self.contract_edge(edge_id)
        if m == 1:
            return self
        u, v = self.endpoints(edge_id)
        fresh = list(range(self.vertex_count, self.vertex_count + m - 1))
        path = [u] + fresh + [v]
        new_edges = []
        for i in range(m):
            eid = edge_id if i == 0 else f"{edge_id}.{i}"
            new_edges.append((eid, path[i], path[i + 1]))
        edges = []
        for e in self.edges:
            if e[0] == edge_id:
                edges.extend(new_edges)
            else:
                edges.append(e)
        return MultiGraph(self.vertex_count + m - 1, tuple(edges))

    def double_edge(self, edge_id: str, extra: int) -> "MultiGraph":
        """Add `extra` fresh edges parallel to the given edge."""
        if extra < 0:
            raise InvalidParameterError("negative number of parallel edges")
        u, v = self.endpoints(edge_id)
        added = tuple((f"{edge_id}p{i}", u, v) for i in range(1, extra + 1))
        return MultiGraph(self.vertex_count, self.edges + added)


# -- constructors ------------------------------------------------------------


def polygon(sides: int) -> MultiGraph:
    """Cycle with `sides` edges; sides = 1 is a single loop, sides = 2 the
    pair of parallel edges."""
    if sides < 1:
        raise InvalidParameterError("a polygon needs at least one side")
    edges = tuple(
        (str(i + 1), i, (i + 1) % sides) for i in range(sides)
    )
    return MultiGraph(sides, edges)


def banana(m: int) -> MultiGraph:
    """Two vertices joined by m parallel edges."""
    if m < 1:
        raise InvalidParameterError("a banana needs at least one edge")
    return MultiGraph(2, tuple((str(i + 1), 0, 1) for i in range(m)))


class _Builder:
    """Accumulates vertices and sequentially numbered edges."""

    def __init__(self):
        self.vertices = 0
        self.edges: list[tuple[str, int, int]] = []

    def vertex(self) -> int:
        self.vertices += 1
        return self.vertices - 1

    def edge(self, u: int, v: int) -> None:
        self.edges.append((str(len(self.edges) + 1), u, v))

    def chain(self, start: int, k: int) -> int:
        """Path of k edges from `start`; returns the far endpoint."""
        cur = start
        for _ in range(k):
            nxt = self.vertex()
            self.edge(cur, nxt)
            cur = nxt
        return cur

    def graph(self) -> MultiGraph:
        return MultiGraph(self.vertices, tuple(self.edges))


def _polygon_block(b: _Builder, entry: int, sides: int) -> int:
    """Attach a cycle of `sides` edges at `entry`; returns the exit vertex."""
    if sides == 1:
        b.edge(entry, entry)
        return entry
    ring = [entry] + [b.vertex() for _ in range(sides - 1)]
    for i in range(sides):
        b.edge(ring[i], ring[(i + 1) % sides])
    return ring[sides // 2]


def _banana_block(b: _Builder, entry: int, m: int) -> int:
    if m == 0:
        return entry
    far = b.vertex()
    for _ in range(m):
        b.edge(entry, far)
    return far


def chain_polygons(spec: FamilySpec) -> MultiGraph:
    """n polygons with m+1 sides each, consecutive ones joined by a path of
    k edges (k = 0 joins at a shared vertex)."""
    b = _Builder()
    entry = b.vertex()
    for i in range(spec.n):
        exit_v = _polygon_block(b, entry, spec.m + 1)
        if i < spec.n - 1:
            entry = b.chain(exit_v, spec.k)
    return b.graph()


def chain_bananas(spec: FamilySpec) -> MultiGraph:
    """n bananas with m+1 parallel edges each, joined like chain_polygons."""
    b = _Builder()
    entry = b.vertex()
    for i in range(spec.n):
        exit_v = _banana_block(b, entry, spec.m + 1)
        if i < spec.n - 1:
            entry = b.chain(exit_v, spec.k)
    return b.graph()


def disjoint_union(g1: MultiGraph, g2: MultiGraph, suffix: str = "b") -> MultiGraph:
    """Side-by-side union; an id of the second graph that collides gets the
    suffix appended until it is free."""
    if not suffix:
        raise InvalidParameterError("the renaming suffix must be nonempty")
    shift = g1.vertex_count
    taken = set(g1.edge_ids())
    edges = list(g1.edges)
    for eid, u, v in g2.edges:
        name = eid
        while name in taken:
            name += suffix
        taken.add(name)
        edges.append((name, u + shift, v + shift))
    return MultiGraph(g1.vertex_count + g2.vertex_count, tuple(edges))


# -- text edge-list format ----------------------------------------------------


def parse_edge_list(text: str) -> MultiGraph:
    """Parse the CLI graph format: a "V <count>" line, then one line
    "<edge_id> <u> <v>" per edge (0-based endpoints; loops have u = v)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("V"):
        raise InvalidParameterError('graph file must start with a "V <count>" line')
    head = lines[0].split()
    if len(head) != 2 or not _is_ascii_number(head[1]):
        raise InvalidParameterError(f"malformed vertex line {lines[0]!r}")
    vertex_count = int(head[1])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or not all(map(_is_ascii_number, parts[1:])):
            raise InvalidParameterError(f"malformed edge line {ln!r}")
        eid, u, v = parts
        edges.append((eid, int(u), int(v)))
    try:
        return MultiGraph(vertex_count, tuple(edges))
    except InvalidParameterError:
        raise
    except Exception as exc:  # defensive: surface as a parse error
        raise InvalidParameterError(str(exc)) from exc


def _is_ascii_number(s: str) -> bool:
    """ASCII decimal digits only: int() would also take "+0", "0_0", and
    other scripts' digits such as the Arabic-Indic three."""
    return s.isascii() and s.isdecimal()


def format_edge_list(g: MultiGraph) -> str:
    lines = [f"V {g.vertex_count}"]
    lines.extend(f"{eid} {u} {v}" for eid, u, v in g.edges)
    return "\n".join(lines) + "\n"
