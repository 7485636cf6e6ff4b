"""Finite-field point counting and exact interpolation of Grothendieck
classes.

Counting specializes one variable at a time over F_q and finishes the last
few variables in closed form (root counts of affine and quadratic forms, see
the kernel module); it consults no class formula of the package and is
therefore the verification oracle.  The supported fields are those the
kernel's field() builds: F_p for a prime p below 2^31 and F_4, F_8 and F_9.
A report's plan (sample_plan) samples the first d field sizes of
FIELD_LADDER and checks at the next one.

For a polynomial-count variety, whose class is a polynomial in the torus
class T, the number of F_q points equals that polynomial at T = q - 1 for
every prime power q (Katz, appendix to Hausel and Rodriguez-Villegas,
arXiv:math/0612668).  The complement of a proper subvariety of A^d has
class T^d plus terms of lower degree, so d samples fix it: the counts minus
q^d are fitted by Newton divided differences in exact integers.  Graph
hypersurfaces need not be polynomial-count (Belkale and Brosnan,
arXiv:math/0012198), so a reserved check field and the exactness of every
division guard the fit.

complement_counter is the one counter: it converts its polynomials to the
kernel's input forms once (Z_G as exponent columns, its k-list, and every
other polynomial dense), and a report counts every sample and check field
through one counter.  A fixed-q report counts the system of Z_G itself,
q first, and the kernel fixes q at a field element: q0 % char in odd
characteristic, and the generator x of F_4 and F_8, where the integer q0
would be 0 or 1.  Its plan is the ladder minus F_2, which has no such
element; by the independence of the fixed-q class from the fixed q, every
field's count is one class at q - 1.

POTTS_BUDGET caps the nominal enumeration size q^d per count and the sum of
q^d over the sample and check fields of a report (default 10^8).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import itemgetter, mul
from typing import Callable, Iterable, Sequence

from . import _countpure, _runmemo
from .classpoly import ClassPoly
from .errors import (
    InvalidArgumentError,
    NotPolynomialCountError,
    ResourceLimitError,
)
from .mpoly import MPoly, var_sort_key
from .multigraph import _parse_int

DEFAULT_BUDGET = 10**8
# the field sizes that plans sample, smallest first
FIELD_LADDER = (2, 3, 4, 5, 7, 8, 9, 11, 13, 17, 19, 23, 29, 31, 37)


def kernel_backend() -> str:
    """The kernel that counts: always "pure", the one kernel there is."""
    return "pure"


def _budget() -> int:
    raw = os.environ.get("POTTS_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        return _parse_int(raw)
    except ValueError:
        raise InvalidArgumentError(
            f"POTTS_BUDGET must be a decimal integer, got {raw!r}"
        ) from None


def _dense_system(polys: Sequence[MPoly]):
    """Convert polynomials to the kernel's input forms over the union of
    their variables in canonical order (q outermost).  A subset poly
    (mpoly._subset_poly) over all of them has shape (K + 1, 2, ..., 2) and
    is read from its k-list ks.  With no hole it goes in as exponent
    columns: ks itself, uncopied, where entry A (a binary number with the
    first edge as its high bit) is the exponent of q in the monomial q^k t^A
    and every coefficient is 1.  A list with holes goes in dense, a 1 at
    k * 2^E + A for each entry k that is not a hole, and so does every other
    poly: the flat row-major coefficient list of its shape, from its
    terms."""
    names = sorted({v for p in polys for v in p.variables}, key=var_sort_key)
    pos = {n: i for i, n in enumerate(names)}
    whole = tuple(names)
    dense = []
    for p in polys:
        ks = p._ks
        if ks is not None and p.variables == whole:
            shape = (max(ks) + 1,) + (2,) * (len(whole) - 1)
            if -1 in ks:
                block = len(ks)
                coeffs = [0] * (shape[0] * block)
                for a, k in enumerate(ks):
                    if k >= 0:
                        coeffs[k * block + a] = 1
                dense.append((shape, coeffs))
            else:
                dense.append((shape, ks))
            continue
        terms = p.terms
        degs = [0] * len(names)
        for col, n in enumerate(p.variables):
            degs[pos[n]] = max(map(itemgetter(col), terms), default=0)
        shape = tuple(d + 1 for d in degs)
        strides = [0] * len(names)
        acc = 1
        for i in range(len(names) - 1, -1, -1):
            strides[i] = acc
            acc *= shape[i]
        own = [strides[pos[n]] for n in p.variables]
        coeffs = [0] * acc
        for exps, c in terms.items():
            coeffs[sum(map(mul, exps, own))] = c
        dense.append((shape, coeffs))
    return names, dense


def complement_counter(
    polys: Sequence[MPoly], ambient_dim: int, *, fixed_q: bool = False
) -> Callable[..., int]:
    """The number of points of F_q^ambient_dim where some polynomial is
    nonzero, the complement of their common zero locus, as a function of the
    field size q.  With fixed_q, q is no coordinate: the function also takes
    the element of F_q that q is fixed to, and the kernel fixes it there.
    The polynomials are converted to the kernel's input forms once, here
    (_dense_system), so that every field of a report counts the same
    system; a field is checked when it is counted.  POTTS_BUDGET is read
    once, here, and each count refuses a q^ambient_dim above it.

    Inside a `potts verify` run, a kernel count is kept, keyed by the
    converted system in dense form (each (shape, data) with data as a tuple,
    exponent columns expanded by _countpure._dense_columns, so that the two
    forms of one polynomial share one count), the field size and the fixed
    element, and any counter of the run that meets the same key again
    reuses it, until the run ends.  It is looked up only once the field and
    the budget have been checked, so a refusal is never kept.  Outside a
    run every count reaches the kernel, so a kernel swapped in there sees
    them all; see _runmemo."""
    constraints = [p for p in polys if not p.is_zero]
    names, dense = _dense_system(constraints) if constraints else ([], [])
    nvars = len(names)
    sliced = fixed_q and names[:1] == ["q"]  # q sorts first when present
    free = nvars - sliced
    if free > ambient_dim:
        raise InvalidArgumentError(
            f"{free} variables do not fit in ambient dimension {ambient_dim}"
        )
    cap = _budget()
    system = None  # the memo key, made on the first count in a run

    def complement(q: int, element: int | None = None) -> int:
        nonlocal system
        _check_fields((q,))
        if q**ambient_dim > cap:
            raise ResourceLimitError(
                f"{q}^{ambient_dim} points exceeds the budget of {cap}"
            )
        if not dense:
            return 0
        first = element if sliced else None
        memo = _runmemo.current
        if memo is None:
            n = _kernel_count(dense, nvars, q, first)
        else:
            if system is None:
                system = tuple(
                    (shape, tuple(_countpure._dense_columns(shape, data)))
                    if _countpure._is_columns(shape, data)
                    else (shape, tuple(data))
                    for shape, data in dense
                )
            key = ("count", system, q, first)
            n = memo.get(key)
            if n is None:
                n = memo[key] = _kernel_count(dense, nvars, q, first)
        return q**ambient_dim - n * q ** (ambient_dim - free)

    return complement


def _kernel_count(dense, nvars: int, q: int, first: int | None) -> int:
    # through the module attribute, so a wrapper rebound there sees every
    # call; first is passed by keyword only, and only to fix q
    if first is None:
        return _countpure.count_common_zeros(dense, nvars, q)
    return _countpure.count_common_zeros(dense, nvars, q, first=first)


def _slice_element(q0: int, q: int) -> int:
    """The element of F_q at which the fixed-q slice at the integer q0 is
    counted: q0 % char in odd characteristic, and the generator x (element
    2) of F_4 and F_8, whatever q0 is, since every integer is 0 or 1 there.
    F_2 has no other element, so there it is q0 % 2, which degenerates."""
    char = _countpure.field(q).char
    if char == 2 and q > 2:
        return 2
    return q0 % char


# -- interpolation -------------------------------------------------------------


def _class_from_samples(samples, ambient_dim: int) -> ClassPoly:
    """The class T^d + r of a complement in A^d through the samples (q, n),
    d = ambient_dim.  r is fitted to n - q^d in the Newton basis
    prod (L - q_i) by divided differences over the integers; a division that
    leaves a remainder, or a nonzero difference of order d or more, means
    the counts are no such class.  Horner then rebases r from L to
    T = L - 1 on a list of ints and adds the binomial row of (T + 1)^d."""
    xs = [q for q, _ in samples]
    diffs = [n - q**ambient_dim for q, n in samples]
    for order in range(1, len(xs)):
        for i in range(len(xs) - 1, order - 1, -1):
            quo, rem = divmod(diffs[i] - diffs[i - 1], xs[i] - xs[i - order])
            if rem:
                raise NotPolynomialCountError(
                    f"counts {samples} have a non-integer divided difference"
                )
            diffs[i] = quo
    if any(diffs[ambient_dim:]):
        raise NotPolynomialCountError(
            f"counts {samples} are not T^{ambient_dim} plus a class of lower degree"
        )
    coeffs = [0] * (ambient_dim + 1)
    for k in range(min(ambient_dim, len(xs)) - 1, -1, -1):
        shift = 1 - xs[k]  # coeffs = coeffs * (T + shift) + diffs[k]
        for i in range(ambient_dim, 0, -1):
            coeffs[i] = coeffs[i] * shift + coeffs[i - 1]
        coeffs[0] = coeffs[0] * shift + diffs[k]
    binomial = 1
    for i in range(ambient_dim + 1):
        coeffs[i] += binomial
        binomial = binomial * (ambient_dim - i) // (i + 1)
    return ClassPoly(coeffs)


def _check_fields(sizes: Iterable[int]) -> None:
    """Refuse every size that the kernel's field() refuses, all at once: the
    closed forms need a field.  A size it accepts is checked once, when its
    field is built; every later check is a cache hit."""
    bad = []
    for q in sizes:
        try:
            _countpure.field(q)
        except ValueError:
            bad.append(q)
    if bad:
        raise InvalidArgumentError(
            f"{bad} are not primes below 2^31 nor one of "
            f"{sorted(_countpure.EXTENSIONS)}, so not a supported field"
        )


@dataclass(frozen=True)
class CountReport:
    """Counts per sample field, with the interpolated class and its
    check-field evidence (field size, predicted, observed)."""

    ambient_dim: int
    samples: tuple[tuple[int, int], ...]
    interpolated: ClassPoly
    check: tuple[int, int, int]

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "samples": [[p, n] for p, n in self.samples],
            "class_T": list(self.interpolated.coeffs),
            "check": {
                "prime": self.check[0],
                "predicted": self.check[1],
                "observed": self.check[2],
            },
        }


def sample_plan(
    ambient_dim: int,
    primes: Sequence[int] | None = None,
    check_prime: int | None = None,
    *,
    q0: int | None = None,
) -> tuple[tuple[int, ...], int]:
    """The sample fields and check field of a count report, given by their
    sizes and refused before anything is counted: fewer than ambient_dim or
    repeated sample fields, a check field among the samples, an unsupported
    field, a dimension beyond the ladder, a nominal enumeration over
    POTTS_BUDGET, or, for a fixed-q slice at q0, a field where the slice's
    element (see _slice_element) is 0 or 1: F_2, or an odd field where q0 is
    0 or 1 mod its characteristic (the slice degenerates there, so its count
    says nothing about the class).  By default a plan samples the first
    ambient_dim sizes of the ladder and checks at the next size above every
    sample; a fixed-q plan uses the ladder minus F_2, whose only elements
    are 0 and 1, and F_4 and F_8 at their generator x.  Callers that must
    first build the polynomial to count call this before building it."""
    ladder = FIELD_LADDER if q0 is None else FIELD_LADDER[1:]
    if primes is None:
        if ambient_dim + 1 > len(ladder):
            raise InvalidArgumentError("ambient dimension beyond the prime ladder")
        primes = ladder[:ambient_dim]
    primes = tuple(primes)
    if len(primes) < ambient_dim:
        raise InvalidArgumentError(
            f"need at least {ambient_dim} sample primes, got {len(primes)}"
        )
    if check_prime is None:
        top = max(primes, default=0)
        check_prime = next((q for q in ladder if q > top), None)
        if check_prime is None:
            raise InvalidArgumentError("no check field left on the ladder")
    if len(set(primes)) != len(primes):
        raise InvalidArgumentError(f"sample primes {primes} repeat a prime")
    if check_prime in primes:
        raise InvalidArgumentError(f"check prime {check_prime} is also a sample prime")
    _check_fields(primes + (check_prime,))
    if q0 is not None:
        for q in primes + (check_prime,):
            value = _slice_element(q0, q)
            if value in (0, 1):
                raise InvalidArgumentError(
                    f"q = {q0} is {value} in F_{q}; the fixed-q slice degenerates"
                )
    nominal = sum(q**ambient_dim for q in primes) + check_prime**ambient_dim
    cap = _budget()
    if nominal > cap:
        raise ResourceLimitError(
            f"report would enumerate {nominal} nominal points, over the budget of {cap}"
        )
    return primes, check_prime


def count_report(
    counter: Callable[[int], int],
    ambient_dim: int,
    primes: Sequence[int] | None = None,
    check_prime: int | None = None,
    *,
    q0: int | None = None,
) -> CountReport:
    """Run the counter, which counts the complement of a proper subvariety of
    A^ambient_dim over the field of the size it is given, at the sample
    fields, interpolate, and verify at the check field; raises
    NotPolynomialCountError on any inconsistency.  The one plan of the
    report (sample_plan, with q0 for a fixed-q slice) is made first."""
    primes, check_prime = sample_plan(ambient_dim, primes, check_prime, q0=q0)
    samples = tuple((q, counter(q)) for q in primes)
    cls = _class_from_samples(samples, ambient_dim)
    predicted = cls.eval_int(check_prime - 1)
    observed = counter(check_prime)
    if predicted != observed:
        raise NotPolynomialCountError(
            f"check field F_{check_prime}: predicted {predicted}, observed {observed}"
        )
    return CountReport(ambient_dim, samples, cls, (check_prime, predicted, observed))


# -- class-level helpers --------------------------------------------------------


def _locus_report(
    polys: Sequence[MPoly],
    ambient_dim: int,
    primes: Sequence[int] | None = None,
    check_prime: int | None = None,
    q0: int | None = None,
) -> CountReport:
    """count_report of the complement of the common zero locus, or with q0
    of its fixed-q slice at q0, counted from one conversion.  The counter
    is built on the first count, once count_report has planned, so that a
    refused plan converts nothing and comes before any other refusal."""
    counter = None

    def complement(q: int) -> int:
        nonlocal counter
        if counter is None:
            counter = complement_counter(polys, ambient_dim, fixed_q=q0 is not None)
        return counter(q) if q0 is None else counter(q, _slice_element(q0, q))

    return count_report(complement, ambient_dim, primes, check_prime, q0=q0)


def complement_report(
    poly: MPoly,
    ambient_dim: int,
    primes: Sequence[int] | None = None,
    check_prime: int | None = None,
) -> CountReport:
    """count_report of the complement of {poly = 0} in A^ambient_dim."""
    return _locus_report([poly], ambient_dim, primes, check_prime)


def complement_class(poly: MPoly, ambient_dim: int) -> ClassPoly:
    """{X}: class of the complement of {poly = 0} in affine ambient space;
    0, uncounted, for the zero polynomial."""
    if poly.is_zero:
        return ClassPoly.zero()
    return complement_report(poly, ambient_dim).interpolated


def locus_complement_class(polys: Sequence[MPoly], ambient_dim: int) -> ClassPoly:
    """{X} for the common zero locus of several polynomials; 0, uncounted,
    when every polynomial is zero."""
    if all(p.is_zero for p in polys):
        return ClassPoly.zero()
    return _locus_report(polys, ambient_dim).interpolated


def fixed_q_report(
    poly: MPoly,
    q0: int,
    edge_count: int,
    primes: Sequence[int] | None = None,
    check_prime: int | None = None,
) -> CountReport:
    """count_report of the fixed-q complement slice at q0; see sample_plan
    for the fields it samples and the q0 it refuses.  Every field counts
    the one conversion of poly, with q fixed by the kernel at q0 % char in
    odd characteristic and at the generator x of F_4 and F_8.  Mixing
    elements across fields relies on the slice's class being independent of
    the fixed q (verify checks it); a fit that broke that would fail its
    check field."""
    return _locus_report([poly], edge_count, primes, check_prime, q0)


def fixed_q_class(poly: MPoly, edge_count: int) -> ClassPoly:
    """Class of the fixed-q complement slice at q = 2, counted at x in F_4
    and F_8; see fixed_q_report."""
    return fixed_q_report(poly, 2, edge_count).interpolated
