"""Pure-Python point-counting kernel.

Counts the common zeros of a system of integer polynomials over a finite
field F_q by specializing one variable at a time, outermost first.  A
polynomial is a pair (shape, data), shape[i] being 1 + its degree in
variable i, in one of two forms, told apart by the length of data:
  - dense: data is the flat row-major coefficient list, of length
    prod(shape) (last variable fastest, so flat index =
    e0*prod(shape[1:]) + ...);
  - exponent columns, shape[0] >= 2: data has length prod(shape[1:]), one
    entry per monomial m of the other variables in the same order, and is
    the exponent of the first variable in the one term x0^data[j] * m with
    coefficient 1 in column j.  Z_G comes so, its k-list with q first.
The top level fixes the first variable of exponent columns at v through a
table of the K + 1 powers of v, with no reduction and no Horner step, so a
system that has any is split on its first variable there; every slice below
is dense.  Given first, an element of F_q, count_common_zeros fixes the
first variable there and counts the others; a fixed-q slice is counted so,
from the system of Z_G with q first, at elements such as the generator x of
F_4 and F_8 that no integer reaches.

The supported fields are F_p for a prime p and F_4, F_8 and F_9.  An element
of F_q is an int in range(q) whose base-p digits are its coefficients in
F_p[x]/(m(x)), lowest first, so 0 and 1 are the field's zero and one and an
integer coefficient c is the element c % p.  Every field up to F_37 does its
arithmetic by table lookup (see Field); a larger prime field computes each
entry with % on its first read and keeps it.  One recursion and one set of
leaves serve every field.

Early exits keep the recursion far below q^nvars nodes in practice:
  - a polynomial that reduces to a nonzero constant kills its branch,
  - a polynomial that vanishes identically stops constraining the branch,
  - one polynomial of degree <= 1 in each of two, three or four variables,
    and a pair of them in two or three, are finished off in closed form.

The closed forms are linear-variable elimination at the leaves: a
polynomial of degree <= 1 in z is A + B*z, which has one zero in z where
B != 0, and none or q where B == 0.  Summing over the remaining variables
leaves root counts of affine forms and of one quadratic: A*D - B*C for
A + B*y + C*z + D*y*z, and the resultant C*B - A*D for the pair A + B*z,
C + D*z.  Each is exact in O(1), in any field, and written once, as a sum
over weighted values (w, weight) of one more variable w of the zeros of
L + w*H, each slice's coefficients computed inline from those of L and H:
no list is built and no call made per value.  At the one value w = 0 with
H = 0 the sum is the leaf itself; a single polynomial in two variables is
the pair form with a zero second polynomial.

Two exact reductions come before a node branches:
  - Frobenius orbits.  x -> x^p is an automorphism of F_q that fixes F_p,
    so where every coefficient lies in F_p the slices at v and at v^p
    have equal counts.  Every loop over the values of a variable (the
    branch loop, the univariate leaf and the sums of the closed forms)
    then takes one value from each orbit (Field.orbits) and weights its
    count by the orbit's size: 3 of the 4 elements of F_4, 4 of 8 in F_8
    and 6 of 9 in F_9.  The condition travels as a flag, not a scan: it
    holds at the top, where the coefficients are reduced mod p, unless a
    fixed first variable lies outside F_p, and a branch keeps it exactly
    when its value lies in F_p.
  - Splitting off the first variable.  One polynomial L + x*H in at least
    four variables, of degree <= 1 in its first variable x: if H == 0, x is
    free and N = q*N(L); if L == c*H, the polynomial is (x + c)*H and
    N = q^(n-1) + (q - 1)*N(H), the hyperplane x = -c plus the zeros of H
    off it.  Either way the node recurses once instead of q times.

Tried on the kernel calls of a perfbench oracle or verify pass and not
kept, being slower or no faster: counting the three-variable form over the
(w, x) plane at once (about 16 us a call against 2.5 us a slice, so slower
below F_11); one generic multilinear recursion in place of the leaves
(1.07x the time on oracle's calls, 1.26x on verify's); a list comprehension
in _specialize (1.08x); sparse specialization (level: each column of the
dense system of Z_G has one nonzero entry); inlining the helpers into the
three-variable leaf (level); scanning every variable, not only the first,
for a factor to split off (slower in every prototype); a per-call memo of
scalar-normalised subsystems (from 2 % faster to 20 % slower); finding the
monomial columns of a dense Z_G inside the kernel at every call, a scan
that costs about as much as the Horner steps it saves (oracle op_p50_ms
level, 0.276-0.285 ms), where the conversion now hands the columns over.
"""

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache
from math import prod
from typing import Sequence

# F_{p^k} = F_p[x]/(x^k + m(x)): p and the coefficients of m, lowest first
EXTENSIONS = {
    4: (2, (1, 1)),  # x^2 + x + 1
    8: (2, (1, 1, 0)),  # x^3 + x + 1
    9: (3, (1, 0)),  # x^2 + 1
}
# the largest field whose operations are tables
TABLE_MAX = 37


@dataclass(frozen=True, slots=True, eq=False)
class Field:
    """F_q as operation tables over the elements range(q): add[a][b] is
    a + b, mul[a][b] is a*b, neg[a] is -a, inv[a] is 1/a (a != 0), and
    roots[b][c] is the number of roots of x^2 + b*x + c.  orbits has a pair
    (v, size) per orbit of x -> x^p, v its least element (None above the
    tables, where every element is its own orbit)."""

    size: int
    char: int
    add: Sequence
    mul: Sequence
    neg: Sequence
    inv: Sequence
    roots: Sequence
    orbits: Sequence | None


def field(q):
    """The field with q elements: tables up to TABLE_MAX, built on first
    use, and above it a prime field whose entries are computed with % on
    first read (q is taken to be prime there; the caller checks)."""
    if q <= TABLE_MAX:
        return _table_field(q)
    return _modular_field(q)


@cache
def _table_field(q):
    if q in EXTENSIONS:
        p, low = EXTENSIONS[q]
    elif q >= 2 and all(q % d for d in range(2, q)):
        p, low = q, ()
    else:
        raise ValueError(f"no field with {q} elements is supported")
    if low:
        add, mul, neg = _extension_tables(q, p, low)
    else:
        add = [[(a + b) % p for b in range(q)] for a in range(q)]
        mul = [[a * b % p for b in range(q)] for a in range(q)]
        neg = [-a % p for a in range(q)]
    inv = [0] + [mul[a].index(1) for a in range(1, q)]
    roots = [[0] * q for _ in range(q)]
    for x in range(q):
        square = mul[x][x]
        for b in range(q):
            roots[b][neg[add[square][mul[b][x]]]] += 1
    return Field(q, p, add, mul, neg, inv, roots, _frobenius_orbits(q, p, mul))


def _frobenius_orbits(q, p, mul):
    """(v, size) for each orbit of x -> x^p on range(q), v its least
    element, walked round from the least element not yet seen."""
    orbits, seen = [], set()
    for v in range(q):
        x, size = v, 0
        while x not in seen:
            seen.add(x)
            power = 1
            for _ in range(p):
                power = mul[power][x]
            x, size = power, size + 1
        if size:
            orbits.append((v, size))
    return tuple(orbits)


def _extension_tables(q, p, low):
    """add, mul and neg of F_p[x]/(x^k + m(x)), m given by its coefficients
    low, on elements numbered by their base-p digits."""
    k = len(low)
    digits = [[e // p**i % p for i in range(k)] for e in range(q)]

    def element(cs):
        return sum(c % p * p**i for i, c in enumerate(cs))

    def product(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(digits[a]):
            for j, y in enumerate(digits[b]):
                prod[i + j] += x * y
        for t in range(2 * k - 2, k - 1, -1):  # x^k = -m(x)
            for i, m in enumerate(low):
                prod[t - k + i] -= prod[t] * m
        return element(prod[:k])

    add = [[element(map(sum, zip(digits[a], digits[b]))) for b in range(q)] for a in range(q)]
    mul = [[product(a, b) for b in range(q)] for a in range(q)]
    neg = [element(-c for c in digits[a]) for a in range(q)]
    return add, mul, neg


class _Memo(dict):
    """An operation table of F_p filled on access: table[a] is fn(a),
    computed on the first read and stored; for a binary operation the row
    with row[b] == op(a, b), itself a _Memo.  Only the entries read are
    ever built, so no row has length p."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, a):
        value = self[a] = self.fn(a)
        return value


@lru_cache(maxsize=8)
def _modular_field(p):
    """F_p for a prime p above TABLE_MAX, kept across counts.  Each kept
    field holds only the entries its counts have read, and a run uses one
    check prime or a few, so a few fields suffice; the bound stops a stream
    of primes up to 2^31 from keeping one each."""

    def roots(b, c):  # Euler's criterion on the discriminant; p is odd
        disc = (b * b - 4 * c) % p
        if not disc:
            return 1
        return 2 if pow(disc, (p - 1) // 2, p) == 1 else 0

    return Field(
        p,
        p,
        _Memo(lambda a: _Memo(lambda b: (a + b) % p)),
        _Memo(lambda a: _Memo(lambda b: a * b % p)),
        _Memo(lambda a: -a % p),
        _Memo(lambda a: pow(a, -1, p)),
        _Memo(lambda b: _Memo(lambda c: roots(b, c))),
        None,
    )


def count_common_zeros(polys, nvars, q, *, first=None):
    """Number of points of F_q^nvars at which every polynomial vanishes.

    With first, an element of F_q, the first variable is fixed there
    instead: the number of points of F_q^(nvars - 1) at which every
    polynomial, with its first variable set to first, vanishes.  The
    integer coefficients of a dense polynomial are reduced mod the
    characteristic before first is substituted: reduced after, an element
    of F_4, F_8 or F_9 such as x would be read as an integer and corrupted.
    Exponent columns hold exponents, not coefficients, and are read
    unreduced; a system that has any is split on its first variable here,
    so that only dense slices reach the recursion."""
    F = field(q)
    if first is not None and not (nvars and 0 <= first < q):
        raise ValueError(f"no first variable to fix at {first} in F_{q}")
    p = F.char
    system, columns = [], False
    for shape, data in polys:
        if len(shape) != nvars:
            raise ValueError("polynomial shape does not match the variable count")
        shape = tuple(shape)
        column = _is_columns(shape, data)
        if not column:
            data = [c % p for c in data]
        system.append((shape, data, column))
        columns = columns or column
    if first is not None:
        return _count_slice(system, first, nvars - 1, F, first < p)
    if columns:
        return sum(
            size * _count_slice(system, v, nvars - 1, F, v < p)
            for v, size in _branches(F, True)
        )
    active = [(shape, data) for shape, data, _ in system if any(data)]
    if not active:
        return q**nvars
    return _count(active, nvars, F, True)


def _is_columns(shape, data):
    """Whether data is exponent columns over shape rather than dense: one
    entry per monomial of the variables after the first, where a dense list
    has shape[0] >= 2 times as many."""
    return len(shape) > 0 and shape[0] >= 2 and len(data) == prod(shape[1:])


def _dense_columns(shape, ks):
    """The dense coefficient list of the exponent columns ks over shape:
    a 1 at ks[j] * len(ks) + j for each column j."""
    block = len(ks)
    out = [0] * (shape[0] * block)
    for j, k in enumerate(ks):
        out[k * block + j] = 1
    return out


def _count_slice(system, v, free, F, rational):
    """Common zeros of the (shape, data, columns) system with its first
    variable fixed at v, over F_q^free.  Exponent columns are read through
    a table of the powers of v, dense lists by _specialize."""
    active = []
    for shape, data, columns in system:
        if columns:
            times_v, powers = F.mul[v], [1]
            for _ in range(shape[0] - 1):
                powers.append(times_v[powers[-1]])
            spec = (shape[1:], list(map(powers.__getitem__, data)))
        else:
            spec = _specialize(shape, data, v, F)  # None when it vanishes
        if spec and any(spec[1]):
            active.append(spec)
    if not active:
        return F.size**free
    return _count(active, free, F, rational)


def brute_force(polys, nvars, q):
    """The reference counter: every polynomial evaluated at every point of
    F_q^nvars, with no early exit and no closed form.  Reads both input
    forms: exponent columns are expanded to the dense list first."""
    F = field(q)
    add, mul = F.add, F.mul
    systems = []
    for shape, coeffs in polys:
        if _is_columns(shape, coeffs):
            coeffs = _dense_columns(shape, coeffs)
        exponents = itertools.product(*(range(extent) for extent in shape))
        systems.append([(c % F.char, e) for c, e in zip(coeffs, exponents) if c % F.char])
    count = 0
    for point in itertools.product(range(q), repeat=nvars):
        for terms in systems:
            total = 0
            for c, exps in terms:
                for v, e in zip(point, exps):
                    for _ in range(e):
                        c = mul[c][v]
                total = add[total][c]
            if total:
                break
        else:
            count += 1
    return count


def _count(polys, nvars, F, rational):
    """Common zeros of the nonzero polys over F_q^nvars; rational when
    every coefficient lies in F_p."""
    q = F.size
    for _, coeffs in polys:
        if len(coeffs) == 1:
            return 0  # nonzero constant: this branch has no common zero
    if len(polys) == 1:
        shape, coeffs = polys[0]
        if nvars == 1:
            return _univariate_zeros(coeffs, F, rational)
        if nvars <= 4 and max(shape) <= 2:
            c = _multilinear(shape, coeffs)
            if nvars == 2:  # the pair form with a zero second polynomial
                return _bilinear_pair_zeros(c, (0,) * 4, (0,) * 4, (0,) * 4, _LEAF, F)
            if nvars == 3:
                return _trilinear_zeros(c, (0,) * 8, _LEAF, F)
            return _trilinear_zeros(c[:8], c[8:], _branches(F, rational), F)
        if nvars >= 4 and shape[0] <= 2:
            split = _split_first(shape, coeffs, nvars, F, rational)
            if split is not None:
                return split
    elif len(polys) == 2 and 2 <= nvars <= 3:
        (s1, c1), (s2, c2) = polys
        if max(s1) <= 2 and max(s2) <= 2:
            f, g = _multilinear(s1, c1), _multilinear(s2, c2)
            if nvars == 2:
                return _bilinear_pair_zeros(f, (0,) * 4, g, (0,) * 4, _LEAF, F)
            values = _branches(F, rational)
            return _bilinear_pair_zeros(f[:4], f[4:], g[:4], g[4:], values, F)
    p = F.char
    total = 0
    for v, size in _branches(F, rational):
        branch = []
        dead = False
        for shape, coeffs in polys:
            spec = _specialize(shape, coeffs, v, F)
            if spec is None:
                continue  # vanished: no longer a constraint
            if len(spec[1]) == 1:
                dead = True  # specialized to a nonzero constant
                break
            branch.append(spec)
        if dead:
            continue
        if branch:
            total += size * _count(branch, nvars - 1, F, rational and v < p)
        else:
            total += size * q ** (nvars - 1)
    return total


# the one value w = 0, weight 1: a closed form summed over it is the leaf
_LEAF = ((0, 1),)


def _branches(F, rational):
    """The (v, weight) pairs a count sums over: one per Frobenius orbit,
    weighted by its size, when every coefficient lies in F_p (conjugate
    values then give equal counts); else every element once."""
    if rational and F.orbits is not None:
        return F.orbits
    return zip(range(F.size), itertools.repeat(1))


def _split_first(shape, coeffs, nvars, F, rational):
    """The count of one polynomial L + x*H, x its first variable, when it
    splits off x: q*N(L) when H == 0, and q^(n-1) + (q-1)*N(H) when
    L == c*H, that is the polynomial is (x + c)*H.  None otherwise."""
    q = F.size
    rest = shape[1:]
    if shape[0] == 1:
        return q * _count([(rest, coeffs)], nvars - 1, F, rational)
    block = len(coeffs) // 2
    low, high = coeffs[:block], coeffs[block:]
    for h, l in zip(high, low):
        if h:
            times_c = F.mul[F.mul[l][F.inv[h]]]
            break
    else:
        return q * _count([(rest, low)], nvars - 1, F, rational)
    if low != [times_c[h] for h in high]:
        return None
    return q ** (nvars - 1) + (q - 1) * _count([(rest, high)], nvars - 1, F, rational)


def _specialize(shape, coeffs, v, F):
    """Set the first variable to v; None when the result is identically 0."""
    d0 = shape[0]
    rest = shape[1:]
    if d0 == 1:
        return (rest, coeffs)  # shared, read-only
    block = len(coeffs) // d0
    add, times_v = F.add, F.mul[v]
    out = coeffs[(d0 - 1) * block : d0 * block]
    for i in range(d0 - 2, -1, -1):
        base = i * block
        for j in range(block):
            out[j] = add[times_v[out[j]]][coeffs[base + j]]
    if any(out):
        return (rest, out)
    return None


def _univariate_zeros(coeffs, F, rational):
    add, mul = F.add, F.mul
    top = len(coeffs) - 1
    count = 0
    for v, size in _branches(F, rational):
        times_v = mul[v]
        acc = coeffs[top]
        for i in range(top - 1, -1, -1):
            acc = add[times_v[acc]][coeffs[i]]
        if not acc:
            count += size
    return count


def _multilinear(shape, coeffs):
    """Coefficients of a polynomial of degree <= 1 in every variable, laid
    out in the full (2, ..., 2) shape (row-major, last variable fastest)."""
    if 1 not in shape:
        return coeffs
    n = len(shape)
    # the binary digits of a flat index are the exponents of the
    # extent-2 variables, last variable in the lowest digit
    bits = [n - 1 - i for i in range(n - 1, -1, -1) if shape[i] == 2]
    out = [0] * (1 << n)
    for flat, c in enumerate(coeffs):
        full = 0
        for k, bit in enumerate(bits):
            if flat >> k & 1:
                full |= 1 << bit
        out[full] = c
    return out


def _root(F, c0, c1):
    """The root of c0 + c1*x, c1 != 0."""
    return F.mul[F.neg[c0]][F.inv[c1]]


def _affine_common_roots(forms, F):
    """Number of x in F_q at which every c0 + c1*x in forms vanishes."""
    for c0, c1 in forms:
        if c1:
            x = _root(F, c0, c1)
            for a0, a1 in forms:
                if F.add[a0][F.mul[a1][x]]:
                    return 0
            return 1
    for c0, _ in forms:
        if c0:
            return 0
    return F.size


def _quadratic_roots(c0, c1, c2, F):
    """Number of x in F_q with c0 + c1*x + c2*x^2 == 0."""
    if c2:
        s = F.inv[c2]
        return F.roots[F.mul[c1][s]][F.mul[c0][s]]
    if c1:
        return 1
    return F.size if not c0 else 0


def _trilinear_zeros(low, high, values, F):
    """Zeros of L + w*H over F_q^3, summed over the weighted values
    (w, weight); L and H are each laid out as A + B*y + C*z + D*y*z with
    A..D affine in x, and every slice is counted in O(1).

    Where D(x) != 0 the (y, z) slice has q - 1 zeros, plus q when
    Q = A*D - B*C vanishes at x.  Where D(x) == 0, so that Q = -B*C, it has
    q unless B == C == 0, and then q^2 or none as A vanishes or not.
    Summing over x, with nd, ndb, ndc and nall the numbers of x at which
    D, D and B, D and C, and all four vanish, gives
    (q - nd)(q - 1) + q(#roots of Q - ndb - ndc + nd) + q^2 nall."""
    la0, lc0, lb0, ld0, la1, lc1, lb1, ld1 = low
    ha0, hc0, hb0, hd0, ha1, hc1, hb1, hd1 = high
    q = F.size
    add, mul, neg = F.add, F.mul, F.neg
    total = 0
    for w, weight in values:
        t = mul[w]
        a0, c0, b0, d0 = add[la0][t[ha0]], add[lc0][t[hc0]], add[lb0][t[hb0]], add[ld0][t[hd0]]
        a1, c1, b1, d1 = add[la1][t[ha1]], add[lc1][t[hc1]], add[lb1][t[hb1]], add[ld1][t[hd1]]
        nq = _quadratic_roots(
            add[mul[a0][d0]][neg[mul[b0][c0]]],
            add[add[mul[a0][d1]][mul[a1][d0]]][neg[add[mul[b0][c1]][mul[b1][c0]]]],
            add[mul[a1][d1]][neg[mul[b1][c1]]],
            F,
        )
        if d1:  # D vanishes at exactly one x
            x = _root(F, d0, d1)
            a = add[a0][mul[a1][x]]
            b = add[b0][mul[b1][x]]
            c = add[c0][mul[c1][x]]
            nd, ndb, ndc, nall = 1, b == 0, c == 0, not (a or b or c)
        elif d0:  # D never vanishes
            total += weight * q * (q - 1 + nq)
            continue
        else:  # D vanishes identically
            nd = q
            ndb = _affine_common_roots([(b0, b1)], F)
            ndc = _affine_common_roots([(c0, c1)], F)
            nall = _affine_common_roots([(a0, a1), (b0, b1), (c0, c1)], F)
        total += weight * ((q - nd) * (q - 1) + q * (nq - ndb - ndc + nd + q * nall))
    return total


def _bilinear_pair_zeros(f_low, f_high, g_low, g_high, values, F):
    """Common zeros of f = A + B*z and g = C + D*z over F_q^2, A..D affine
    in y, summed over the weighted values (w, weight), where f and g are
    f_low + w*f_high and g_low + w*g_high; every slice is counted in O(1).

    Where B(y) != 0 the one zero z of f is a common zero iff the resultant
    R = C*B - A*D vanishes at y.  Where B(y) == 0, so that R = -A*D, there
    is one common z if A == 0 != D, and q if A == C == D == 0.  Summing
    over y gives
    #roots of R - #{B == D == 0} + q #{A == B == C == D == 0}."""
    la0, lb0, la1, lb1 = f_low
    ha0, hb0, ha1, hb1 = f_high
    lc0, ld0, lc1, ld1 = g_low
    hc0, hd0, hc1, hd1 = g_high
    q = F.size
    add, mul, neg = F.add, F.mul, F.neg
    total = 0
    for w, weight in values:
        t = mul[w]
        a0, b0, a1, b1 = add[la0][t[ha0]], add[lb0][t[hb0]], add[la1][t[ha1]], add[lb1][t[hb1]]
        c0, d0, c1, d1 = add[lc0][t[hc0]], add[ld0][t[hd0]], add[lc1][t[hc1]], add[ld1][t[hd1]]
        r = _quadratic_roots(
            add[mul[c0][b0]][neg[mul[a0][d0]]],
            add[add[mul[c0][b1]][mul[c1][b0]]][neg[add[mul[a0][d1]][mul[a1][d0]]]],
            add[mul[c1][b1]][neg[mul[a1][d1]]],
            F,
        )
        if b1:  # B vanishes at exactly one y
            y = _root(F, b0, b1)
            a = add[a0][mul[a1][y]]
            c = add[c0][mul[c1][y]]
            d = add[d0][mul[d1][y]]
            r += (q if not (a or c or d) else 0) - (d == 0)
        elif not b0:  # B vanishes identically
            r += q * _affine_common_roots([(a0, a1), (c0, c1), (d0, d1)], F)
            r -= _affine_common_roots([(d0, d1)], F)
        total += weight * r
    return total
