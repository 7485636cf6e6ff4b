"""Pure-Python point-counting kernel.

Counts the common zeros of a system of integer polynomials over the prime
field F_p by specializing one variable at a time, outermost first.  A
polynomial is dense: a pair (shape, coeffs) where shape[i] is 1 + the degree
in variable i and coeffs is the flat row-major coefficient list (last
variable fastest, so flat index = e0*prod(shape[1:]) + ...).

Early exits keep the recursion far below p^nvars nodes in practice:
  - a polynomial that reduces to a nonzero constant kills its branch,
  - a polynomial that vanishes identically stops constraining the branch,
  - a single polynomial of degree <= 1 in each of the last two or three
    variables is finished off in closed form,
  - so is a pair of polynomials of degree <= 1 in each of the last two
    variables.

The closed forms are linear-variable elimination at the leaves: a
polynomial of degree <= 1 in z is A + B*z, which has one zero in z where
B != 0, and none or p where B == 0.  Summing over the remaining variables
leaves root counts of affine forms and of one quadratic: A*D - B*C for
A + B*y + C*z + D*y*z, and the resultant C*B - A*D for the pair A + B*z,
C + D*z.  Each is exact in O(1).  The quadratic is counted with Euler's
criterion, so the modulus must be prime.
"""


def count_common_zeros(polys, nvars, prime):
    """Number of points of F_p^nvars at which every polynomial vanishes."""
    active = []
    for shape, coeffs in polys:
        if len(shape) != nvars:
            raise ValueError("polynomial shape does not match the variable count")
        reduced = [c % prime for c in coeffs]
        if any(reduced):
            active.append((tuple(shape), reduced))
    if not active:
        return prime**nvars
    return _count(active, nvars, prime)


def _count(polys, nvars, prime):
    for _, coeffs in polys:
        if len(coeffs) == 1:
            return 0  # nonzero constant: this branch has no common zero
    if len(polys) == 1:
        shape, coeffs = polys[0]
        if nvars == 1:
            return _univariate_zeros(coeffs, prime)
        if nvars <= 3 and max(shape) <= 2:
            c = _multilinear(shape, coeffs)
            if nvars == 2:
                return _bilinear_zeros(c, prime)
            return _trilinear_zeros(c, prime)
    elif len(polys) == 2 and nvars == 2:
        (s1, c1), (s2, c2) = polys
        if max(s1) <= 2 and max(s2) <= 2:
            return _bilinear_pair_zeros(
                _multilinear(s1, c1), _multilinear(s2, c2), prime
            )
    total = 0
    for v in range(prime):
        branch = []
        dead = False
        for shape, coeffs in polys:
            spec = _specialize(shape, coeffs, v, prime)
            if spec is None:
                continue  # vanished: no longer a constraint
            if len(spec[1]) == 1:
                dead = True  # specialized to a nonzero constant
                break
            branch.append(spec)
        if dead:
            continue
        if branch:
            total += _count(branch, nvars - 1, prime)
        else:
            total += prime ** (nvars - 1)
    return total


def _specialize(shape, coeffs, v, prime):
    """Set the first variable to v; None when the result is identically 0."""
    d0 = shape[0]
    rest = shape[1:]
    if d0 == 1:
        return (rest, coeffs)  # shared, read-only
    block = len(coeffs) // d0
    out = list(coeffs[(d0 - 1) * block : d0 * block])
    for i in range(d0 - 2, -1, -1):
        base = i * block
        for j in range(block):
            out[j] = (out[j] * v + coeffs[base + j]) % prime
    if any(out):
        return (rest, out)
    return None


def _univariate_zeros(coeffs, prime):
    top = len(coeffs) - 1
    count = 0
    for v in range(prime):
        acc = coeffs[top]
        for i in range(top - 1, -1, -1):
            acc = (acc * v + coeffs[i]) % prime
        if acc == 0:
            count += 1
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


def _affine_common_roots(forms, prime):
    """Number of x in F_p at which every c0 + c1*x in forms vanishes."""
    for c0, c1 in forms:
        if c1:
            x = -c0 * pow(c1, -1, prime)
            for a0, a1 in forms:
                if (a0 + a1 * x) % prime:
                    return 0
            return 1
    for c0, _ in forms:
        if c0:
            return 0
    return prime


def _quadratic_roots(c0, c1, c2, prime):
    """Number of x in F_p with c0 + c1*x + c2*x^2 == 0 (p prime)."""
    c0 %= prime
    c1 %= prime
    c2 %= prime
    if not c2:
        return _affine_common_roots([(c0, c1)], prime)
    if prime == 2:
        return (c0 == 0) + ((c0 + c1 + c2) % 2 == 0)
    disc = (c1 * c1 - 4 * c2 * c0) % prime
    if not disc:
        return 1
    return 2 if pow(disc, (prime - 1) // 2, prime) == 1 else 0


def _bilinear_zeros(f, prime):
    """Zeros of A(x) + B(x)*y over F_p^2, A and B affine, in O(1): one y
    where B != 0, and p where A == B == 0."""
    a0, b0, a1, b1 = f
    if b1:  # B vanishes at exactly one x
        x = -b0 * pow(b1, -1, prime)
        return (prime - 1) + (prime if (a0 + a1 * x) % prime == 0 else 0)
    if b0:
        return prime
    return prime * _affine_common_roots([(a0, a1)], prime)


def _trilinear_zeros(f, prime):
    """Zeros of A + B*y + C*z + D*y*z over F_p^3, A..D affine in x, in O(1).

    Where D(x) != 0 the (y, z) slice has p - 1 zeros, plus p when
    Q = A*D - B*C vanishes at x.  Where D(x) == 0, so that Q = -B*C, it has
    p unless B == C == 0, and then p^2 or none as A vanishes or not.
    Summing over x, with nd, ndb, ndc and nall the numbers of x at which
    D, D and B, D and C, and all four vanish, gives
    (p - nd)(p - 1) + p(#roots of Q - ndb - ndc + nd) + p^2 nall."""
    a0, c0, b0, d0, a1, c1, b1, d1 = f
    q = _quadratic_roots(
        a0 * d0 - b0 * c0,
        a0 * d1 + a1 * d0 - b0 * c1 - b1 * c0,
        a1 * d1 - b1 * c1,
        prime,
    )
    if d1:  # D vanishes at exactly one x
        x = -d0 * pow(d1, -1, prime)
        a = (a0 + a1 * x) % prime
        b = (b0 + b1 * x) % prime
        c = (c0 + c1 * x) % prime
        nd, ndb, ndc, nall = 1, b == 0, c == 0, not (a or b or c)
    elif d0:  # D never vanishes
        return prime * (prime - 1 + q)
    else:  # D vanishes identically
        nd = prime
        ndb = _affine_common_roots([(b0, b1)], prime)
        ndc = _affine_common_roots([(c0, c1)], prime)
        nall = _affine_common_roots([(a0, a1), (b0, b1), (c0, c1)], prime)
    return (prime - nd) * (prime - 1) + prime * (q - ndb - ndc + nd + prime * nall)


def _bilinear_pair_zeros(f, g, prime):
    """Common zeros of A + B*z and C + D*z over F_p^2, A..D affine in y, in
    O(1).

    Where B(y) != 0 the one zero z of the first is a common zero iff the
    resultant R = C*B - A*D vanishes at y.  Where B(y) == 0, so that
    R = -A*D, there is one common z if A == 0 != D, and p if
    A == C == D == 0.  Summing over y gives
    #roots of R - #{B == D == 0} + p #{A == B == C == D == 0}."""
    a0, b0, a1, b1 = f
    c0, d0, c1, d1 = g
    r = _quadratic_roots(
        c0 * b0 - a0 * d0,
        c0 * b1 + c1 * b0 - a0 * d1 - a1 * d0,
        c1 * b1 - a1 * d1,
        prime,
    )
    if b1:  # B vanishes at exactly one y
        y = -b0 * pow(b1, -1, prime)
        a = (a0 + a1 * y) % prime
        c = (c0 + c1 * y) % prime
        d = (d0 + d1 * y) % prime
        return r - (d == 0) + (prime if not (a or c or d) else 0)
    if b0:  # B never vanishes
        return r
    return (
        r
        - _affine_common_roots([(d0, d1)], prime)
        + prime * _affine_common_roots([(a0, a1), (c0, c1), (d0, d1)], prime)
    )
