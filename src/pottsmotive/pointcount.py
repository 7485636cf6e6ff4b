"""Finite-field point counting and exact interpolation of Grothendieck
classes.

Counting specializes one variable at a time over F_p and finishes the last
few variables in closed form (root counts of affine and quadratic forms, see
the kernel modules); it consults no class formula of the package and is
therefore the verification oracle.  For a variety whose class is a
polynomial in the torus class T, the number of F_p points equals that
polynomial at T = p - 1, so exact Lagrange interpolation through counts at
enough primes recovers the class, and a reserved check prime plus an
integrality check guard against non-polynomial counts.

POTTS_BUDGET caps the nominal enumeration size p^d per count (default
10^8).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import _countpure
from .classpoly import ClassPoly
from .errors import (
    InvalidArgumentError,
    NotPolynomialCountError,
    ResourceLimitError,
)
from .mpoly import MPoly, var_sort_key

DEFAULT_BUDGET = 10**8
PRIME_LADDER = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# bounds the trial division that checks a prime given from outside: a
# dimension-0 count enumerates one point, so POTTS_BUDGET never bounds it
MAX_PRIME = 2**31


def kernel_backend() -> str:
    """The kernel that counts: always "pure", the one kernel there is."""
    return "pure"


def _budget() -> int:
    raw = os.environ.get("POTTS_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise InvalidArgumentError(
            f"POTTS_BUDGET must be a decimal integer, got {raw!r}"
        ) from None


def _check_budget(prime: int, ambient_dim: int) -> None:
    cap = _budget()
    if prime**ambient_dim > cap:
        raise ResourceLimitError(
            f"{prime}^{ambient_dim} points exceeds the budget of {cap}"
        )


def _dense_system(polys: Sequence[MPoly]):
    """Convert polynomials to the kernel's dense format over the union of
    their variables in canonical order (q outermost)."""
    names = sorted({v for p in polys for v in p.variables}, key=var_sort_key)
    pos = {n: i for i, n in enumerate(names)}
    dense = []
    for p in polys:
        degs = [0] * len(names)
        idx = [pos[n] for n in p.variables]
        for exps in p.terms:
            for i, e in zip(idx, exps):
                if e > degs[i]:
                    degs[i] = e
        shape = tuple(d + 1 for d in degs)
        strides = [0] * len(names)
        acc = 1
        for i in range(len(names) - 1, -1, -1):
            strides[i] = acc
            acc *= shape[i]
        coeffs = [0] * acc
        for exps, c in p.terms.items():
            flat = 0
            for i, e in zip(idx, exps):
                flat += e * strides[i]
            coeffs[flat] = c
        dense.append((shape, coeffs))
    return names, dense


def count_zero_locus(
    polys: Sequence[MPoly],
    ambient_dim: int,
    prime: int,
) -> int:
    """Points of F_p^ambient_dim where every polynomial vanishes."""
    _check_primes((prime,))
    _check_budget(prime, ambient_dim)
    constraints = [p for p in polys if not p.is_zero]
    if not constraints:
        return prime**ambient_dim
    names, dense = _dense_system(constraints)
    if len(names) > ambient_dim:
        raise InvalidArgumentError(
            f"{len(names)} variables do not fit in ambient dimension {ambient_dim}"
        )
    # through the module attribute, so a wrapper rebound there sees every call
    zeros = _countpure.count_common_zeros(dense, len(names), prime)
    return zeros * prime ** (ambient_dim - len(names))


def count_complement(poly: MPoly, ambient_dim: int, prime: int) -> int:
    """Points of F_p^ambient_dim where the polynomial is nonzero."""
    return prime**ambient_dim - count_zero_locus([poly], ambient_dim, prime)


def count_fixed_q(poly: MPoly, q0: int, ambient_dim: int, prime: int) -> int:
    """Points of the fixed-q slice (t-space only) where poly(q0, t) != 0."""
    return count_complement(poly.substitute("q", q0 % prime), ambient_dim, prime)


# -- interpolation -------------------------------------------------------------


def _lagrange_fit(xs: Sequence[int], ys: Sequence[int]) -> list[Fraction]:
    """Coefficients (ascending) of the unique degree < len(xs) polynomial
    through the points, over exact rationals."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            shifted = [Fraction(0)] + basis
            for k in range(len(basis)):
                shifted[k] -= xs[j] * basis[k]
            basis = shifted
            denom *= xs[i] - xs[j]
        scale = Fraction(ys[i]) / denom
        for k in range(len(basis)):
            coeffs[k] += basis[k] * scale
    return coeffs


def _class_from_samples(samples, ambient_dim: int) -> ClassPoly:
    xs = [p for p, _ in samples]
    ys = [n for _, n in samples]
    fit = _lagrange_fit(xs, ys)
    while fit and fit[-1] == 0:
        fit.pop()
    for c in fit:
        if c.denominator != 1:
            raise NotPolynomialCountError(
                f"interpolation through {samples} has non-integer coefficient {c}"
            )
    if len(fit) - 1 > ambient_dim:
        raise NotPolynomialCountError(
            f"interpolated degree {len(fit) - 1} exceeds ambient dimension {ambient_dim}"
        )
    # rebase from L to T = L - 1
    lef = ClassPoly((1, 1))
    out = ClassPoly.zero()
    for i, c in enumerate(fit):
        out = out + lef**i * int(c)
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_primes(primes: Iterable[int]) -> None:
    """Refuse anything but primes below MAX_PRIME: the kernel's closed forms
    need a field, and the cap is tested first so that trial division stays
    short."""
    bad = [p for p in primes if not (p < MAX_PRIME and _is_prime(p))]
    if bad:
        raise InvalidArgumentError(f"{bad} are not primes below 2^31")


def default_primes(ambient_dim: int, *, skip_two: bool = False) -> tuple[int, ...]:
    ladder = [p for p in PRIME_LADDER if not (skip_two and p == 2)]
    if ambient_dim + 1 > len(ladder):
        raise InvalidArgumentError("ambient dimension beyond the prime ladder")
    return tuple(ladder[: ambient_dim + 1])


def default_check_prime(primes: Iterable[int]) -> int:
    top = max(primes)
    for p in PRIME_LADDER:
        if p > top:
            return p
    raise InvalidArgumentError("no check prime left on the ladder")


@dataclass(frozen=True)
class CountReport:
    """Per-prime counts with the interpolated class and its check-prime
    evidence (prime, predicted, observed)."""

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
    """The sample primes and check prime of a count report, refused before
    anything is counted: too few or repeated primes, a check prime among the
    samples, a non-prime, a dimension beyond the prime ladder, a nominal
    enumeration over POTTS_BUDGET, or, for a fixed-q slice at q0, a prime
    where q0 is 0 or 1 (the slice degenerates there, so its count says
    nothing about the class; a fixed-q slice is sampled at odd primes by
    default).  Callers that must first build the polynomial to count call
    this before building it."""
    if primes is None:
        primes = default_primes(ambient_dim, skip_two=q0 is not None)
    primes = tuple(primes)
    if len(primes) < ambient_dim + 1:
        raise InvalidArgumentError(
            f"need at least {ambient_dim + 1} sample primes, got {len(primes)}"
        )
    if check_prime is None:
        check_prime = default_check_prime(primes)
    if len(set(primes)) != len(primes):
        raise InvalidArgumentError(f"sample primes {primes} repeat a prime")
    if check_prime in primes:
        raise InvalidArgumentError(f"check prime {check_prime} is also a sample prime")
    _check_primes(primes + (check_prime,))
    if q0 is not None:
        for p in primes + (check_prime,):
            if q0 % p in (0, 1):
                raise InvalidArgumentError(
                    f"q = {q0} is {q0 % p} modulo {p}; the fixed-q slice degenerates"
                )
    nominal = sum(p**ambient_dim for p in primes) + check_prime**ambient_dim
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
) -> CountReport:
    """Run the counter over the sample primes, interpolate, and verify at the
    check prime; raises NotPolynomialCountError on any inconsistency."""
    primes, check_prime = sample_plan(ambient_dim, primes, check_prime)
    samples = tuple((p, counter(p)) for p in primes)
    cls = _class_from_samples(samples, ambient_dim)
    predicted = cls.eval_int(check_prime - 1)
    observed = counter(check_prime)
    if predicted != observed:
        raise NotPolynomialCountError(
            f"check prime {check_prime}: predicted {predicted}, observed {observed}"
        )
    return CountReport(ambient_dim, samples, cls, (check_prime, predicted, observed))


def interpolate_class(
    counter: Callable[[int], int],
    ambient_dim: int,
    primes: Sequence[int] | None = None,
    check_prime: int | None = None,
) -> ClassPoly:
    """The unique class polynomial through the counts; see count_report."""
    return count_report(counter, ambient_dim, primes, check_prime).interpolated


# -- class-level helpers --------------------------------------------------------


def complement_class(poly: MPoly, ambient_dim: int) -> ClassPoly:
    """{X}: class of the complement of {poly = 0} in affine ambient space."""
    return interpolate_class(
        lambda p: count_complement(poly, ambient_dim, p), ambient_dim
    )


def locus_complement_class(polys: Sequence[MPoly], ambient_dim: int) -> ClassPoly:
    """{X} for the common zero locus of several polynomials."""
    return interpolate_class(
        lambda p: p**ambient_dim - count_zero_locus(polys, ambient_dim, p),
        ambient_dim,
    )


def fixed_q_report(
    poly: MPoly,
    q0: int,
    edge_count: int,
    primes: Sequence[int] | None = None,
    check_prime: int | None = None,
) -> CountReport:
    """count_report of the fixed-q complement slice at q0; see sample_plan
    for the primes it samples and the q0 it refuses."""
    primes, check_prime = sample_plan(edge_count, primes, check_prime, q0=q0)
    return count_report(
        lambda p: count_fixed_q(poly, q0, edge_count, p),
        edge_count,
        primes,
        check_prime,
    )


def fixed_q_class(poly: MPoly, edge_count: int) -> ClassPoly:
    """Class of the fixed-q complement slice at q = 2; see fixed_q_report."""
    return fixed_q_report(poly, 2, edge_count).interpolated
