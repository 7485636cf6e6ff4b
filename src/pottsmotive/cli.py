"""Command-line interface.

Subcommands: z (polynomials), class (Grothendieck classes), cone (tangent
cone classes), chi (Euler characteristic tables), count (raw point-count
reports), verify (cross-check suites).  Exit codes: 0 ok, 1 verification
failure, 2 usage or parse error, 3 budget exceeded or out of memory, 4
oracle inconsistency.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys

import click

from . import grothendieck as gr
from . import motivic, pointcount, tangentcone, tutte, verify
from .classpoly import T
from .errors import (
    EdgeNotFoundError,
    ExactDivisionError,
    InvalidArgumentError,
    InvalidParameterError,
    NotPolynomialCountError,
    PottsError,
    ResourceLimitError,
)
from .multigraph import FamilySpec, MultiGraph, _parse_int, banana, chain_bananas, chain_polygons, parse_edge_list, polygon

_EXIT_CODES = (
    (ResourceLimitError, 3),
    (NotPolynomialCountError, 4),
    (ExactDivisionError, 4),
    (InvalidParameterError, 2),
    (EdgeNotFoundError, 2),
    (InvalidArgumentError, 2),
    (PottsError, 1),
)


def _exits(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PottsError as exc:
            for klass, code in _EXIT_CODES:
                if isinstance(exc, klass):
                    click.echo(f"error: {exc}", err=True)
                    sys.exit(code)
            raise
        except MemoryError:  # a class too large for this machine's memory
            click.echo("error: out of memory", err=True)
            sys.exit(3)

    return wrapper


FAMILIES = ("polygon", "banana", "chain-polygon", "chain-banana")


def _family_graph(family: str, m: int, k: int, n: int) -> MultiGraph:
    if family == "polygon":
        return polygon(m + 1)
    if family == "banana":
        return banana(m + 1)
    if family == "chain-polygon":
        return chain_polygons(FamilySpec(m, k, n))
    if family == "chain-banana":
        return chain_bananas(FamilySpec(m, k, n))
    raise InvalidParameterError(f"unknown family {family!r}")


def _input_graph(file, family, m, k, n) -> MultiGraph:
    if (file is None) == (family is None):
        raise click.UsageError("give exactly one of --file or --family")
    if file is not None:
        g = parse_edge_list(file.read())
    else:
        if m is None:
            raise click.UsageError("--family needs --m")
        g = _family_graph(family, m, k, n)
    return _within_edge_budget(g)


def _within_edge_budget(g: MultiGraph) -> MultiGraph:
    """The graph itself, if its polynomials may be built symbolically."""
    tutte.check_edge_budget(g.edge_count)
    return g


class _Integer(click.ParamType):
    """Integers as _parse_int reads them: click's int() would also take
    "+2", "1_0", blanks around the digits and other scripts' digits."""

    name = "integer"

    def convert(self, value, param, ctx):
        try:
            return value if isinstance(value, int) else _parse_int(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


_INT = _Integer()


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(_parse_int(p) for p in text.split(","))
    except ValueError as exc:
        raise click.UsageError(f"malformed prime list {text!r}") from exc


def _parse_grid(text: str, minimum: int = 0) -> list[int]:
    """Grid argument: "3", "1,2,5", or "0..4"."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            values = list(range(_parse_int(lo), _parse_int(hi) + 1))
        else:
            values = [_parse_int(x) for x in text.split(",")]
    except ValueError as exc:
        raise click.UsageError(f"malformed grid {text!r}") from exc
    if not values:
        raise click.UsageError(f"grid {text!r} is empty")
    if any(v < minimum for v in values):
        raise click.UsageError(f"grid {text!r} goes below {minimum}")
    return values


@click.group()
def cli():
    """Exact partition polynomials of multigraphs, Grothendieck classes of
    their zero loci, and motivic invariants, with a finite-field counting
    oracle."""


WHICH = {
    "z": tutte.tutte_delcon,
    "z_tilde": tutte.normalized_tutte,
    "phi": tutte.forest_poly,
    "psi": tutte.forest_complement_poly,
    "p_leading": tutte.leading_part,
    "q_reduced": tutte.reduced_leading_part,
}


@cli.command("z")
@click.option("--file", type=click.File("r"), default=None, help="Graph edge-list file.")
@click.option("--family", type=click.Choice(FAMILIES), default=None)
@click.option("--m", type=_INT, default=None)
@click.option("--k", type=_INT, default=0)
@click.option("--N", "n", type=_INT, default=1)
@click.option("--which", type=click.Choice(sorted(WHICH)), default="z")
@click.option("--format", "fmt", type=click.Choice(("text", "json")), default="text")
@_exits
def cmd_z(file, family, m, k, n, which, fmt):
    """Print a graph polynomial in canonical text form."""
    g = _input_graph(file, family, m, k, n)
    poly = WHICH[which](g)
    if fmt == "text":
        click.echo(poly.render())
    else:
        click.echo(json.dumps({"which": which, "rendering": poly.render()}))


def _family_class(family, m, k, n, fixed_q):
    if family == "polygon":
        return gr.polygon_class_fixed_q(m) if fixed_q else gr.polygon_class(m)
    if family == "banana":
        return gr.banana_class_fixed_q(m) if fixed_q else gr.banana_class(m)
    spec = FamilySpec(m, k, n)
    if family == "chain-polygon":
        fixed = gr.chain_polygon_class_fixed_q(spec)
    else:
        fixed = gr.chain_banana_class_fixed_q(spec)
    if fixed_q:
        return fixed
    # fibration_reduce inverted: {Z_G} = T^E + (T - 1) {fixed-q}
    return T**spec.edge_count + (T - 1) * fixed


def _oracle_dim(g: MultiGraph, q0=None, primes=None, check_prime=None) -> int:
    """Ambient dimension of the oracle count for a graph, or for its fixed-q
    slice at q0, refused by the symbolic budget or by the count report's
    checks before any of the graph's polynomials is built."""
    _within_edge_budget(g)
    dim = g.edge_count if q0 is not None else g.edge_count + 1
    pointcount.sample_plan(dim, primes, check_prime, q0=q0)
    return dim


def _oracle_class(graph: MultiGraph, fixed_q: bool):
    # fixed_q_class counts the slice at q = 2, and at x in F_4 and F_8
    dim = _oracle_dim(graph, 2 if fixed_q else None)
    z = tutte.tutte_delcon(graph)
    if fixed_q:
        return pointcount.fixed_q_class(z, dim)
    return pointcount.complement_class(z, dim)


@cli.command("class")
@click.option("--family", type=click.Choice(FAMILIES), required=True)
@click.option("--m", type=_INT, required=True)
@click.option("--k", type=_INT, default=0)
@click.option("--N", "n", type=_INT, default=1)
@click.option("--fixed-q", is_flag=True, default=False)
@click.option("--oracle", is_flag=True, default=False, help="Re-derive by point counting and compare.")
@_exits
def cmd_class(family, m, k, n, fixed_q, oracle):
    """Grothendieck class of a family member's hypersurface complement."""
    cls = _family_class(family, m, k, n, fixed_q)
    doc = {
        "family": family,
        "m": m,
        "k": k,
        "N": n,
        "fixed_q": fixed_q,
        "class_T": list(cls.coeffs),
        "rendering": cls.render(),
    }
    if oracle:
        counted = _oracle_class(_family_graph(family, m, k, n), fixed_q)
        if counted != cls:
            raise NotPolynomialCountError(
                f"closed form {cls} disagrees with counted class {counted}"
            )
        doc["oracle"] = {"match": True, "class_T": list(counted.coeffs)}
    click.echo(json.dumps(doc))


@cli.command("cone")
@click.option("--family", type=click.Choice(("polygon", "banana")), required=True)
@click.option("--m", type=_INT, required=True)
@click.option("--oracle", is_flag=True, default=False)
@_exits
def cmd_cone(family, m, oracle):
    """Tangent-cone complement class of a family member."""
    if family == "polygon":
        cls = tangentcone.polygon_cone_class(m)
    else:
        cls = tangentcone.banana_cone_class(m)
    doc = {
        "family": family,
        "m": m,
        "class_T": list(cls.coeffs),
        "rendering": cls.render(),
    }
    if oracle:
        g = _family_graph(family, m, 0, 1)
        _oracle_dim(g)
        counted = tangentcone.v_class(g)
        if counted != cls:
            raise NotPolynomialCountError(
                f"closed form {cls} disagrees with counted class {counted}"
            )
        doc["oracle"] = {"match": True, "class_T": list(counted.coeffs)}
    click.echo(json.dumps(doc))


CHI_COLUMNS = (
    "m",
    "k",
    "N",
    "edges",
    "class_at_T=-2",
    "chi_c_locus",
    "closed_form",
    "agree",
)


@cli.command("chi")
@click.option("--family", type=click.Choice(("chain-polygon", "chain-banana")), required=True)
@click.option("--m", "m_grid", default="0..4", help='Grid: "2", "0..4", or "1,3".')
@click.option("--k", "k_grid", default="0..3")
@click.option("--N", "n_grid", default="1..4")
@click.option("--format", "fmt", type=click.Choice(("csv", "json")), default="csv")
@_exits
def cmd_chi(family, m_grid, k_grid, n_grid, fmt):
    """Compactly supported Euler characteristics over a parameter grid."""
    row_fn = (
        motivic.chain_polygon_chi_table_row
        if family == "chain-polygon"
        else motivic.chain_banana_chi_table_row
    )
    ms = _parse_grid(m_grid)
    ks = _parse_grid(k_grid)
    ns = _parse_grid(n_grid, minimum=1)
    rows = [row_fn(FamilySpec(m, k, n)) for m in ms for k in ks for n in ns]
    if fmt == "json":
        click.echo(json.dumps({"family": family, "rows": rows}))
        return
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CHI_COLUMNS)
    for row in rows:
        writer.writerow([row[c] for c in CHI_COLUMNS])
    click.echo(buf.getvalue(), nl=False)


@cli.command("count")
@click.option("--file", type=click.File("r"), default=None)
@click.option("--family", type=click.Choice(FAMILIES), default=None)
@click.option("--m", type=_INT, default=None)
@click.option("--k", type=_INT, default=0)
@click.option("--N", "n", type=_INT, default=1)
@click.option(
    "--primes",
    default=None,
    help="Comma-separated sample field sizes: primes below 2^31, or 4, 8, 9.",
)
@click.option(
    "--check",
    "check_prime",
    type=_INT,
    default=None,
    help="Size of the reserved check field, a prime or 4, 8, 9.",
)
@click.option(
    "--q",
    "q0",
    type=_INT,
    default=None,
    help="Count the fixed-q slice at this q: q mod p in characteristic p odd, "
    "and the generator x of F_4 and F_8 in characteristic 2.",
)
@_exits
def cmd_count(file, family, m, k, n, primes, check_prime, q0):
    """Count complement points over the sample fields and interpolate the
    class."""
    g = _input_graph(file, family, m, k, n)
    sample_primes = _parse_primes(primes) if primes else None
    dim = _oracle_dim(g, q0, sample_primes, check_prime)
    z = tutte.tutte_delcon(g)
    if q0 is None:
        report = pointcount.complement_report(z, dim, sample_primes, check_prime)
    else:
        report = pointcount.fixed_q_report(z, q0, dim, sample_primes, check_prime)
    click.echo(json.dumps(report.to_json()))


@cli.command("verify")
@click.option(
    "--suite",
    type=click.Choice(tuple(verify.SUITES) + ("all",)),
    default="all",
)
@click.option("--max-dim", type=_INT, default=5, help="Largest ambient dimension the oracle checks enumerate.")
@_exits
def cmd_verify(suite, max_dim):
    """Run a cross-check suite; exit 1 if any check fails."""
    checks = verify.run_suite(suite, max_dim)
    failed = [c for c in checks if not c["ok"]]
    click.echo(
        json.dumps(
            {
                "suite": suite,
                "max_dim": max_dim,
                "passed": len(checks) - len(failed),
                "failed": len(failed),
                "checks": checks,
            }
        )
    )
    if failed:
        sys.exit(1)


def main():
    cli(prog_name="potts")


if __name__ == "__main__":
    main()
