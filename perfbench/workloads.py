"""The benchmark's workloads.

Each workload turns a seed into a list of steps.  A step takes the pass's
``Recorder`` and issues one or more operations through it; every operation
returns a canonical text form of its answer (for the output digest) after
comparing the answer with an independent check, and raises ``CheckFailed``
when the two disagree.

Every package function is reached through its module attribute
(``gr.graph_class``, never a name imported into this file), so the tracer's
rebinding of module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from functools import partial

import pottsmotive.cli as potts_cli
import pottsmotive.grothendieck as gr
import pottsmotive.motivic as motivic
import pottsmotive.pointcount as pointcount
import pottsmotive.tangentcone as tangentcone
import pottsmotive.tutte as tutte
import pottsmotive.verify as verify
from pottsmotive.classpoly import T
from pottsmotive.mpoly import MPoly, Q
from pottsmotive.multigraph import (
    FamilySpec,
    MultiGraph,
    banana,
    chain_bananas,
    chain_polygons,
    polygon,
)

# `potts verify --suite all --max-dim 5` runs this many checks.
VERIFY_CHECKS = 344


class CheckFailed(Exception):
    """An answer disagreed with its independent check."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def class_text(c) -> str:
    return " ".join(map(str, c.coeffs))


def late(module, name: str, *args):
    """A thunk that looks the function up when called, so that a tracer or
    a test installed after the workload was built still sees the call."""
    return lambda: getattr(module, name)(*args)


def random_multigraph(rng: random.Random, edges: int, vertices: int) -> MultiGraph:
    """Uniform endpoints, so loops and parallel edges both occur."""
    return MultiGraph(
        vertices,
        tuple(
            (str(i + 1), rng.randrange(vertices), rng.randrange(vertices))
            for i in range(edges)
        ),
    )


# -- oracle ---------------------------------------------------------------------


def _graph_class_op(g: MultiGraph, closed, answers: dict, key: str) -> str:
    cls = gr.graph_class(g)
    answers[key] = cls
    if closed is not None:
        expect(cls == closed(), f"counted {cls} != closed form {closed()}")
    return class_text(cls)


def _fixed_q_op(g: MultiGraph, closed, answers: dict, key: str) -> str:
    fq = pointcount.fixed_q_class(tutte.tutte_delcon(g), g.edge_count)
    reduced = gr.fibration_reduce(answers[key], g.edge_count)
    expect(reduced == fq, f"fibration_reduce gives {reduced}, fixed-q count {fq}")
    if closed is not None:
        expect(fq == closed(), f"counted {fq} != closed form {closed()}")
    return class_text(fq)


def _cone_op(g: MultiGraph, closed) -> str:
    cls = tangentcone.v_class(g)
    expect(cls == closed(), f"counted cone class {cls} != closed form {closed()}")
    return class_text(cls)


def _delcon_op(g: MultiGraph, eid: str) -> str:
    expect(gr.delcon_identity_check(g, eid), "class deletion-contraction fails")
    return "holds"


def oracle(seed: int, tiny: bool) -> list:
    """Certified classes by counting: variable-q and fixed-q classes of
    family members and seeded random multigraphs (ambient dimension up to 6,
    the most the default budget admits), tangent-cone classes, and the
    two-polynomial intersections of the class-level delcon identity."""
    rng = random.Random(seed)
    answers: dict = {}
    steps = []

    def certify(name, g, closed=None, closed_fq=None):
        steps.append(partial(_run, f"class/{name}", _graph_class_op, g, closed, answers, name))
        steps.append(partial(_run, f"fixed-q/{name}", _fixed_q_op, g, closed_fq, answers, name))

    sides = (3, 4) if tiny else (3, 4, 5)
    for s in sides:
        certify(
            f"polygon-{s}",
            polygon(s),
            late(gr, "polygon_class", s - 1),
            late(gr, "polygon_class_fixed_q", s - 1),
        )
        certify(
            f"banana-{s}",
            banana(s),
            late(gr, "banana_class", s - 1),
            late(gr, "banana_class_fixed_q", s - 1),
        )
    chains = [("polygon", chain_polygons, FamilySpec(1, 0, 2))]
    if not tiny:
        chains += [
            ("banana", chain_bananas, FamilySpec(1, 0, 2)),
            ("banana", chain_bananas, FamilySpec(0, 1, 3)),
        ]
    for kind, make, spec in chains:
        certify(
            f"chain-{kind}-{spec.m}{spec.k}{spec.n}",
            make(spec),
            None,
            late(gr, f"chain_{kind}_class_fixed_q", spec),
        )
    for s in sides[:2]:
        for kind, make in (("polygon", polygon), ("banana", banana)):
            closed = late(tangentcone, f"{kind}_cone_class", s - 1)
            steps.append(partial(_run, f"cone/{kind}-{s}", _cone_op, make(s), closed))
    s = sides[-2]
    steps.append(partial(_run, f"delcon/polygon-{s}", _delcon_op, polygon(s), "1"))
    steps.append(partial(_run, f"delcon/banana-{s}", _delcon_op, banana(s), "1"))

    # Fixed (edges, vertices) shapes keep the work per pass nearly the same
    # from seed to seed; only the endpoints are random.
    shapes = ((3, 2), (3, 3)) if tiny else ((4, 3), (4, 2), (3, 3), (3, 2)) * 4
    for i, (e, v) in enumerate(shapes):
        certify(f"random-{i}", random_multigraph(rng, e, v))
    for i, (e, v) in enumerate(((3, 2),) if tiny else ((4, 3), (4, 2)) * 2):
        g = random_multigraph(rng, e, v)
        eid = str(rng.randrange(e) + 1)
        steps.append(partial(_run, f"delcon/random-{i}/{eid}", _delcon_op, g, eid))
    return steps


# -- symbolic -------------------------------------------------------------------

# The subset-sum routes add one MPoly per subset, so their time grows with
# the square of 2^E: tutte_poly takes about 0.4 s at 9 edges, 1.6 s at 10
# and 30 s at 12.  Larger graphs are checked against the subset expansion
# directly instead.
SUBSET_MAX_EDGES = 8


def _components(vertex_count: int, pairs) -> int:
    # the benchmark's own union-find, so the check shares no code with the
    # package it checks
    parent = list(range(vertex_count))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    k = vertex_count
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            k -= 1
    return k


def _check_subset_expansion(g: MultiGraph, z: MPoly) -> None:
    """Every edge subset A contributes exactly one monomial, q^k(A) t^A."""
    expect(len(z.terms) == 2**g.edge_count, f"{len(z.terms)} terms, not 2^{g.edge_count}")
    ends = {"t" + eid: (u, v) for eid, u, v in g.edges}
    for exps, c in z.terms.items():
        powers = dict(zip(z.variables, exps))
        q_exp = powers.pop("q", 0)
        expect(c == 1, f"coefficient {c}")
        expect(all(e <= 1 for e in powers.values()), "an edge variable squared")
        subset = [ends[name] for name, e in powers.items() if e]
        expect(q_exp == _components(g.vertex_count, subset), f"q exponent {q_exp}")


def _z_op(g: MultiGraph) -> str:
    z = tutte.tutte_delcon(g)
    if g.edge_count <= SUBSET_MAX_EDGES:
        expect(tutte.tutte_poly(g) == z, "tutte_poly != tutte_delcon")
    else:
        _check_subset_expansion(g, z)
    return z.render()


def _split_op(g: MultiGraph, eid: str) -> str:
    zc, zn = tutte.connecting_split(g, eid)
    z_del = tutte.tutte_delcon(g.delete_edge(eid))
    z_con = tutte.tutte_delcon(g.contract_edge(eid))
    expect(z_del == zc + zn, "Z_{G-e} != Zc + Zn")
    expect(Q * z_con == Q * zc + zn, "q Z_{G/e} != q Zc + Zn")
    return zc.render() + " | " + zn.render()


def _forests_op(g: MultiGraph) -> str:
    phi = tutte.forest_poly(g)
    psi = tutte.forest_complement_poly(g)
    expect(phi == tutte.forest_poly_from_tutte(g), "forest_poly routes differ")
    expect(psi == tutte.forest_complement_from_dual(g), "forest complement routes differ")
    return phi.render() + " | " + psi.render()


def _leading_op(g: MultiGraph) -> str:
    lead = tutte.leading_part_by_forests(g)
    expect(lead == tutte.leading_part(g), "leading part routes differ")
    return lead.render()


def symbolic(seed: int, tiny: bool) -> list:
    """Z_G and the polynomials derived from it, each cross-checked by an
    independent route; no point counting at all.  The subset-sum routes
    (tutte_poly, the forest sums, connecting_split) run up to
    SUBSET_MAX_EDGES; the larger graphs exercise tutte_delcon alone."""
    rng = random.Random(seed)
    if tiny:
        graphs = [("polygon-5", polygon(5)), ("banana-7", banana(7))]
        shapes = ((5, 3), (6, 4))
    else:
        graphs = [("polygon-8", polygon(8)), ("banana-8", banana(8))]
        # Most operations land in the 30-120 ms range and the Z_G builds
        # above it; the median then falls inside a cluster rather than on
        # the gap between two, where it would jump from run to run.
        shapes = ((8, 4), (8, 5), (8, 6), (11, 6))
    for i, (e, v) in enumerate(shapes):
        graphs.append((f"random-{i}", random_multigraph(rng, e, v)))
    steps = []
    for name, g in graphs:
        steps.append(partial(_run, f"z/{name}", _z_op, g))
        if g.edge_count > SUBSET_MAX_EDGES:
            continue
        steps.append(partial(_run, f"forests/{name}", _forests_op, g))
        steps.append(partial(_run, f"leading/{name}", _leading_op, g))
        links = [eid for eid, u, v in g.edges if u != v]
        if links:
            eid = links[rng.randrange(len(links))]
            steps.append(partial(_run, f"split/{name}/{eid}", _split_op, g, eid))
    return steps


# -- verify ---------------------------------------------------------------------


def invoke_cli(args: list[str]) -> tuple[int, str]:
    """Run the `potts` command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            potts_cli.cli.main(args, prog_name="potts", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


@contextlib.contextmanager
def rebound(module, attr: str, value):
    original = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, original)


def _verify_step(max_dim: int, expected_checks, *, rec) -> None:
    original = verify._check

    def timed_check(results, name, fn):
        def one():
            original(results, name, fn)
            expect(results[-1]["ok"], results[-1]["detail"])
            return results[-1]["detail"]

        rec.run(name, one)

    def whole():
        with rebound(verify, "_check", timed_check):
            code, text = invoke_cli(["verify", "--suite", "all", "--max-dim", str(max_dim)])
        report = json.loads(text)
        expect(code == (1 if report["failed"] else 0), f"exit code {code}")
        if expected_checks is not None:
            total = report["passed"] + report["failed"]
            expect(total == expected_checks, f"{total} checks, expected {expected_checks}")
        return f"passed {report['passed']} failed {report['failed']}"

    rec.run_outside("verify/report", whole)


def verify_workload(seed: int, tiny: bool) -> list:
    """`potts verify --suite all --max-dim 5` through the CLI entry point;
    one operation per check.  The corpus is fixed, so the seed is unused."""
    if tiny:
        return [partial(_verify_step, 3, None)]
    return [partial(_verify_step, 5, VERIFY_CHECKS)]


# -- closed_forms ---------------------------------------------------------------

BANANA_SEEDS = gr.DoubleSeeds(T**2, T**3 + T**2 - 1)


def _polygon_op(m: int) -> str:
    c = gr.polygon_class(m)
    expect(gr.split_recursion(gr.POLYGON_SEEDS, m) == c, "recursion != polygon_class")
    expect(gr.split_closed_term(gr.POLYGON_SEEDS, m) == c, "closed term != polygon_class")
    expect(
        gr.fibration_reduce(c, m + 1) == gr.polygon_class_fixed_q(m),
        "fibration_reduce != polygon_class_fixed_q",
    )
    return class_text(c)


def _banana_op(m: int) -> str:
    c = gr.banana_class(m)
    expect(gr.double_closed_form(BANANA_SEEDS, m) == c, "doubling closed form != banana_class")
    expect(
        gr.fibration_reduce(c, m + 1) == gr.banana_class_fixed_q(m),
        "fibration_reduce != banana_class_fixed_q",
    )
    return class_text(c)


def _cone_closed_op(m: int) -> str:
    seeds = tangentcone.POLYGON_CONE_SEEDS
    c = tangentcone.polygon_cone_class(m)
    expect(gr.split_recursion(seeds, m) == c, "cone recursion != polygon_cone_class")
    expect(gr.split_closed_term(seeds, m) == c, "cone closed term != polygon_cone_class")
    return class_text(c)


def _motivic_op(m: int) -> str:
    c = gr.polygon_class(m)
    vp = motivic.virtual_poincare(c)
    ep = motivic.e_polynomial(c)
    expect(vp.substitute("u", -1) == MPoly.const(motivic.chi_c_real(c)), "P(u=-1) != chi_c")
    expect(
        ep.substitute("x", 1).substitute("y", 1) == MPoly.const(motivic.chi_complex(c)),
        "E(1, 1) != chi",
    )
    return vp.render() + " | " + ep.render()


ROW_FUNCTIONS = {
    "chain-polygon": "chain_polygon_chi_table_row",
    "chain-banana": "chain_banana_chi_table_row",
}


def _chi_step(family: str, fmt: str, grid: tuple[str, str, str], *, rec) -> None:
    attr = ROW_FUNCTIONS[family]
    original = getattr(motivic, attr)
    rows = []

    def timed_row(spec):
        def one():
            row = original(spec)
            rows.append(row)
            expect(row["agree"], f"chi_c {row['chi_c_locus']} != closed form {row['closed_form']}")
            return json.dumps(row, sort_keys=True)

        rec.run(f"chi/{family}/{fmt}/{spec.m},{spec.k},{spec.n}", one)
        return rows[-1]

    def whole():
        with rebound(motivic, attr, timed_row):
            m, k, n = grid
            code, text = invoke_cli(
                ["chi", "--family", family, "--m", m, "--k", k, "--N", n, "--format", fmt]
            )
        expect(code == 0, f"exit code {code}")
        if fmt == "json":
            parsed = json.loads(text)["rows"]
        else:
            parsed = list(csv.DictReader(io.StringIO(text)))
            rows_as_text = [{k: str(v) for k, v in row.items()} for row in rows]
            expect(parsed == rows_as_text, "CSV does not round-trip the rows")
            return text
        expect(parsed == rows, "JSON does not round-trip the rows")
        return text

    rec.run_outside(f"chi/{family}/{fmt}", whole)


def closed_forms(seed: int, tiny: bool) -> list:
    """Class algebra, motivic evaluations and CLI formatting only: large-m
    family classes against their recursions, and wide chi grids."""
    rng = random.Random(seed)
    if tiny:
        ms, motivic_ms = [6, 9], [5]
        grid = ("0..2", "0..1", "1..2")
    else:
        # one m from each stratum, so the work per pass hardly depends on
        # the seed
        ms = [32 + 3 * i + rng.randrange(3) for i in range(12)]
        motivic_ms = [16 + 4 * i + rng.randrange(4) for i in range(4)]
        grid = ("0..9", "0..7", "1..8")
    steps = []
    for m in ms:
        steps.append(partial(_run, f"polygon/{m}", _polygon_op, m))
        steps.append(partial(_run, f"banana/{m}", _banana_op, m))
        steps.append(partial(_run, f"cone/{m}", _cone_closed_op, m))
    for m in motivic_ms:
        steps.append(partial(_run, f"motivic/{m}", _motivic_op, m))
    for family in ROW_FUNCTIONS:
        for fmt in ("csv", "json"):
            steps.append(partial(_chi_step, family, fmt, grid))
    return steps


# -------------------------------------------------------------------------------


def _run(name: str, fn, *args, rec) -> None:
    rec.run(name, partial(fn, *args))


WORKLOADS = {
    "oracle": oracle,
    "symbolic": symbolic,
    "verify": verify_workload,
    "closed_forms": closed_forms,
}


def build(name: str, seed: int, tiny: bool = False) -> list:
    return WORKLOADS[name](seed, tiny)
