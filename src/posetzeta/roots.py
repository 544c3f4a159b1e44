"""High-precision root finding and convergence diagnostics.

Roots are found in two routes, both started on one circle per edge of
the Newton polygon (Bini, "Numerical computation of polynomial zeros by
means of Aberth's method", 1996), read in doubles from the exact
coefficients.  The fast route proves them real: Aberth-Ehrlich
iteration in complex doubles gives approximations, whose real parts are
taken exactly as Gaussian dyadics (m, 0, e); the exact integer
polynomial changes sign between each pair of neighbouring ones (and
beyond each end), so every root is real and alone in its bracket, and
fixed-point Newton on integers refines it there.
Barycentric subdivision makes the numerators real-rooted (Brenti and
Welker, "f-vectors of barycentric subdivisions", 2008), so this route
carries nearly every step.  When a double does not hold the polynomial,
a start or a root, the signs do not prove it, or a Newton step leaves
its bracket, the same Aberth iteration runs in fixed point on Gaussian
integers at the working precision, each root with its own binary
exponent, warm-started from the doubles when there are any.  Every root
is a Gaussian dyadic (x, y, f) = (x + iy) / 2^f, a certified root with
y = 0, cut to the working precision; its backward error is computed
exactly on integers from that dyadic and must be at most 2^-(bits/2).
That test, the order, the conjugate pairs and, in the trajectory report,
the dominant root, its realness and the matching are all decided on
those integers, and the values returned and reported are `Dyadic`s built
from them, which round as mpmath did.  The trajectory report tracks, per
subdivision step, the dominant root against its predicted growth and the
others against the limit polynomial's roots.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import exp, factorial, floor, isqrt, lcm, log, pi
from operator import add, mul

from .dyadic import Dyadic, rounded
from .errors import (
    DegreeZero,
    DimensionZero,
    NoConvergence,
    ZeroEulerCharacteristic,
)
from .poset import chain_vector, euler_characteristic
from .subdivision import H_polynomial, H_vector, transfer_iterate
# g_k_polynomial stays importable from here for perfbench/checks.py.
from .zeta import g_from_chain_vector, g_k_polynomial  # noqa: F401

MAX_SWEEPS = 1000
# The double-precision sweeps stop at this backward error.  Horner's
# rounding error in doubles is about n 2^-53, well below it at the
# degrees met here; the exact certificate and the final backward-error
# test judge the result anyway.
FLOAT_TOL = 2.0 ** -40
# Integer Newton from a double start needs about log2(bits / 53) + 2
# steps; a root that takes this many is left to the Aberth route.
MAX_NEWTON = 64
# Bini's rotation of the starting circles: it keeps the starts of a
# real polynomial off the real axis and out of conjugate-symmetric
# positions, which the iteration of a real polynomial would preserve.
START_ANGLE = 0.7


@dataclass(frozen=True)
class RootSet:
    # Each root and residual a Dyadic at precision precision_bits + 64.
    roots: tuple
    residuals: tuple  # backward error |p(z)| / sum |c_i| |z|^i per root
    precision_bits: int
    gaussians: tuple  # (x, y) per root: roots[i] is (x + iy) / 2^exponent
    exponent: int


def _horner(coeffs, z):
    # Any number type: complex roots in doubles, exact integers.
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def find_roots(p, precision_bits=256):
    """All complex roots of an exact polynomial, deterministically.

    Exactly zero low coefficients give exact zero roots, (0, 0, 0), and
    `_nonzero_roots` gives the rest as Gaussian dyadics of at most
    `precision_bits + 64` bits: proved real and simple by
    `_certified_real_roots` when it can, with an imaginary part of
    exactly 0, else found by `_fixed_aberth`.  Every root's backward
    error |p(z)| / sum |c_i| |z|^i, computed exactly from its dyadic and
    rounded up by `_backward_error_bound`, must be at most
    2^-(precision_bits/2), else NoConvergence is raised; those errors are
    the residuals.  Roots are sorted by real part, then imaginary part,
    and each conjugate pair, whose real parts differ by rounding only,
    puts its member with im < 0 first, each residual with its root.  All
    three are decided on integers, the dyadics over one denominator 2^g,
    and only then is each made a `Dyadic`, exactly; those integers and g
    are returned with them, in the same order.
    """
    if p.degree < 1:
        raise DegreeZero("root finding needs degree >= 1")
    if precision_bits < 53:
        raise ValueError("precision_bits must be >= 53")
    bits, t = precision_bits + 64, precision_bits // 2
    ints = _integer_coeffs(p.coeffs)
    zeros = next(i for i, c in enumerate(ints) if c)
    roots = [(0, 0, 0)] * zeros + _nonzero_roots(ints[zeros:], precision_bits)
    errors = [_backward_error_bound(ints, x, y, f, bits) for x, y, f in roots]
    # q 2^e > 2^-t, that is q 2^(e + t) > 1, on integers.
    if any(q << max(e + t, 0) > 1 << max(-e - t, 0) for q, e in errors):
        raise NoConvergence(f"backward error above 2^-{t}; raise precision")
    g = max(f for _, _, f in roots)
    keys = [(x << (g - f), y << (g - f)) for x, y, f in roots]
    order = sorted(range(len(roots)), key=keys.__getitem__)
    # Neighbours a, b within 2^-t |a| of conj(a) are a conjugate pair.
    for i in range(len(order) - 1):
        (xa, ya), (xb, yb) = keys[order[i]], keys[order[i + 1]]
        near = (xb - xa) ** 2 + (yb + ya) ** 2 << 2 * t <= xa * xa + ya * ya
        if ya > 0 and near:
            order[i:i + 2] = order[i + 1], order[i]
    return RootSet(
        tuple(Dyadic(x, y, -f, bits)
              for x, y, f in map(roots.__getitem__, order)),
        tuple(Dyadic(q, 0, e, bits)
              for q, e in map(errors.__getitem__, order)),
        precision_bits, tuple(map(keys.__getitem__, order)), g)


def _integer_coeffs(coeffs):
    """The coefficients times the lcm of their denominators: integers
    with the same roots and backward errors."""
    scale = lcm(*(c.denominator for c in coeffs))
    return [int(c * scale) for c in coeffs]


def _nonzero_roots(a, precision_bits):
    """The roots of an integer polynomial with a nonzero constant term, as
    Gaussian dyadics (x, y, f) with max(|x|, |y|) < 2^bits, bits =
    precision_bits + 64: none for a constant, -a0 / a1 rounded to nearest
    (ties to even) for a linear one, else those that
    `_certified_real_roots` proves real from the doubles' real parts,
    else those of `_fixed_aberth` from the doubles if any, else from the
    Newton polygon."""
    if len(a) < 2:
        return []
    bits = precision_bits + 64
    if len(a) == 2:
        # r 2^f in [2^(bits - 1), 2^bits) in modulus, then rounded.
        r = Fraction(-a[0], a[1])
        f = bits - r.numerator.bit_length() + r.denominator.bit_length()
        f -= abs(r) * Fraction(2) ** f >= 2 ** bits
        return [_normalized(round(r * Fraction(2) ** f), 0, f, bits)]
    starts = _newton_polygon_starts(a)
    approx = _float_aberth(a, starts)
    if approx is not None:
        # Each real part exactly, as the Gaussian dyadic (m, 0, e).
        ratios = (z.real.as_integer_ratio() for z in approx)
        xs = [(m, 0, den.bit_length() - 1) for m, den in ratios]
        roots = _certified_real_roots(a, xs, bits)
        if roots is not None:
            return roots
    # Starts all on the real axis would keep the sweeps of a real
    # polynomial there (see START_ANGLE), away from any complex root.
    if approx is not None and any(z.imag for z in approx):
        starts = [_double_gaussian(z) for z in approx]
    else:
        starts = [_polygon_start(r, t) for r, t in starts]
    return _fixed_aberth(a, starts, bits, precision_bits // 2)


def _newton_polygon_starts(exact):
    """One circle of starts per edge of the upper convex hull of the
    points (i, log|c_i|), c_i != 0 (Bini 1996), as (log radius, angle)
    pairs of doubles.

    An edge from i to j carries j - i starts, evenly spaced on the
    circle of radius (|c_i| / |c_j|)^(1/(j-i)) and rotated by
    2 pi i / n + START_ANGLE, n the degree.  About j - i roots have
    modulus near that radius, so roots of very different sizes each
    start near their own circle.  log|c| is taken as log|numerator| -
    log(denominator), which is finite at any coefficient size.
    """
    n = len(exact) - 1
    logs = {i: log(abs(c.numerator)) - log(c.denominator)
            for i, c in enumerate(exact) if c}
    hull = []
    for j in sorted(logs):
        # Drop the last vertex while it lies on or below the chord
        # from the one before it to j.
        while len(hull) >= 2 and (logs[hull[-1]] - logs[hull[-2]]) * (
            j - hull[-2]
        ) <= (logs[j] - logs[hull[-2]]) * (hull[-1] - hull[-2]):
            hull.pop()
        hull.append(j)
    starts = []
    for i, j in zip(hull, hull[1:]):
        m = j - i
        log_radius = (logs[i] - logs[j]) / m
        offset = 2 * pi * i / n + START_ANGLE
        starts.extend((log_radius, 2 * pi * k / m + offset) for k in range(m))
    return starts


def _aberth(coeffs, tol, starts):
    """Aberth-Ehrlich sweeps in complex doubles over the roots of a
    polynomial with a nonzero constant term, one per start, started and
    stopped as in Bini (1996).

    The starts lie on the `_newton_polygon_starts` circles.  Each sweep
    updates every root in turn by the Aberth correction.  The stop is
    relative: iteration ends after the first sweep that began with every
    root's backward error |p(z)| / sum |c_i| |z|^i at most `tol`, a test
    that holds at any root size, where an absolute |p(z)| < tol does
    not.  That last sweep still updates each root, which polishes it to
    near working precision.  Raises NoConvergence after MAX_SWEEPS
    sweeps.  The arithmetic is that of the coefficients and starts, so
    the tests run the same sweeps in mpmath as an oracle.
    """
    z = list(starts)
    n = len(z)
    abs_coeffs = [abs(c) for c in coeffs]
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    for _ in range(MAX_SWEEPS):
        converged = True
        for i in range(n):
            pv = _horner(coeffs, z[i])
            if pv and abs(pv) / _horner(abs_coeffs, abs(z[i])) > tol:
                converged = False
            dv = _horner(dcoeffs, z[i])
            if dv == 0:
                z[i] += tol + 1 / 1024
                converged = False
                continue
            newton = pv / dv
            s = 0
            for j in range(n):
                if j != i:
                    s += 1 / (z[i] - z[j])
            denom = 1 - newton * s
            if denom == 0:
                z[i] -= newton
            else:
                z[i] -= newton / denom
        if converged:
            return z
    raise NoConvergence(f"no convergence within {MAX_SWEEPS} sweeps")


def _float_aberth(exact, starts):
    """`_aberth` in doubles from (log radius, angle) starts, or None.

    None when a coefficient or start overflows a double (float and exp
    raise OverflowError rather than return inf), when the sweeps do not
    converge or leave a non-finite value, or when two approximations
    coincide, so that they could neither be told apart nor warm-start
    the full-precision sweeps.
    """
    try:
        coeffs = [float(c) for c in exact]
        z = [cmath.rect(exp(r), t) for r, t in starts]
        z = _aberth(coeffs, FLOAT_TOL, z)
        if all(map(cmath.isfinite, z)) and len(set(z)) == len(z):
            return z
    except (OverflowError, ZeroDivisionError, NoConvergence):
        pass
    return None


def _shift(x, s):
    """x 2^s, truncated toward -infinity when s < 0."""
    return x << s if s >= 0 else x >> -s


def _double_gaussian(w):
    """A complex double exactly, as the Gaussian dyadic (x, y, f): the
    value (x + iy) / 2^f."""
    (xm, xd), (ym, yd) = w.real.as_integer_ratio(), w.imag.as_integer_ratio()
    d = max(xd, yd)  # both are powers of 2
    return xm * (d // xd), ym * (d // yd), d.bit_length() - 1


def _polygon_start(log_radius, angle):
    """A `_newton_polygon_starts` start as a Gaussian dyadic, to a
    double's precision at any radius: the power of 2 in the radius goes
    to the exponent, so that no double overflows."""
    q = floor(log_radius / log(2))
    w = cmath.rect(exp(log_radius - q * log(2)), angle)
    x, y, f = _double_gaussian(w)
    return x, y, f - q


def _rounded_div(n, d):
    """n / d rounded to the nearest integer, for d > 0."""
    return (2 * n + d) // (2 * d)


def _normalized(x, y, f, bits):
    """The Gaussian dyadic (x, y, f) with max(|x|, |y|) cut or extended
    to `bits` bits; 0 as it is."""
    if not (x or y):
        return x, y, f
    s = bits - max(abs(x), abs(y)).bit_length()
    return _shift(x, s), _shift(y, s), f + s


def _gaussian_horner(a, x, y, g):
    """2^g p(z) at z = (x + iy) / 2^g, by Horner on integers with each
    product truncated to a multiple of 2^-g: exact when g = 0."""
    re = im = 0
    for c in reversed(a):
        re, im = ((re * x - im * y) >> g) + (c << g), (re * y + im * x) >> g
    return re, im


def _fixed_aberth(a, starts, bits, t):
    """`_aberth` on the integer polynomial `a` in Gaussian fixed point,
    from Gaussian dyadic starts, with the stop at backward error 2^-t.

    Root i is (x_i + i y_i) / 2^f_i, each with its own exponent f_i, and
    max(|x_i|, |y_i|) is kept at `bits` bits, so roots of any sizes all
    keep their bits.  p and p' come from `_gaussian_horner` over 2^f_i,
    or exactly when f_i <= 0, where z_i is a Gaussian integer:
    truncating the coefficients to 2^-f_i would drop the low bits of
    each, and with them the leading 1 of a monic polynomial.  The stop
    test is `_aberth`'s, |p|^2 2^(2t) <= (sum |a_j| |z|^j)^2, with the
    modulus rounded down.  The Aberth sum S = sum_j 1 / (z_i - z_j) is
    held over 2^(2 bits - f_i), relative to 1 / |z_i|, so that the terms
    of a root far from 1 keep their bits; W = N S, with N = p / p', is
    held over 2^bits, and z_i moves by N / (1 - W), both quotients
    rounded to nearest, so that a root on the grid of z_i is met exactly.
    The roots are returned as Gaussian dyadics.
    """
    da = [j * c for j, c in enumerate(a)][1:]
    abs_a = [abs(c) for c in a]
    z = [_normalized(*s, bits) for s in starts]
    one = 1 << bits
    for _ in range(MAX_SWEEPS):
        converged = True
        for i, (x, y, f) in enumerate(z):
            g = max(f, 0)
            u, v = _shift(x, g - f), _shift(y, g - f)
            pr, pim = _gaussian_horner(a, u, v, g)
            total = _gaussian_horner(abs_a, isqrt(u * u + v * v), 0, g)[0]
            if (pr * pr + pim * pim) << 2 * t > total * total:
                converged = False
            dr, di = _gaussian_horner(da, u, v, g)
            if not (dr or di):
                # A critical point: step off it by 2^-10, or by one
                # unit of z_i where that is more.
                z[i] = _normalized(x + (1 << max(f - 10, 0)), y, f, bits)
                converged = False
                continue
            sr = si = 0
            for j, (xj, yj, fj) in enumerate(z):
                if j != i:
                    ex = x - _shift(xj, f - fj)
                    ey = y - _shift(yj, f - fj)
                    # 1 / e = conj(e) / |e|^2, with |e|^2 cut to `bits`
                    # bits: one division serves both parts.
                    m2 = ex * ex + ey * ey
                    c = max(m2.bit_length() - bits, 0)
                    inv = (1 << 2 * bits) // (m2 >> c)
                    sr += (ex * inv) >> c
                    si -= (ey * inv) >> c
            m2 = dr * dr + di * di
            nr = _rounded_div(_shift(pr * dr + pim * di, f), m2)
            ni = _rounded_div(_shift(pim * dr - pr * di, f), m2)
            vr = one - ((nr * sr - ni * si) >> bits)
            vi = -((nr * si + ni * sr) >> bits)
            m2 = vr * vr + vi * vi
            if m2:
                nr, ni = (
                    _rounded_div((nr * vr + ni * vi) << bits, m2),
                    _rounded_div((ni * vr - nr * vi) << bits, m2),
                )
            z[i] = _normalized(x - nr, y - ni, f, bits)
        if converged:
            return z
    raise NoConvergence(f"no convergence within {MAX_SWEEPS} sweeps")


def _backward_error_bound(a, x, y, f, bits):
    """|p(z)| / sum |a_j| |z|^j at z = (x + iy) / 2^f, rounded up, as
    (q, e): at most q 2^e, with 0 <= q < 2^(bits - 1).

    Both sides are evaluated exactly on integers, over 2^(f n), p(z) by
    `_gaussian_horner` whether z is real or not, and the modulus of a
    non-real z rounded down.  The sum is then cut to `bits` bits and
    |p(z)|^2 by the same factor squared, rounded up, so that the one
    division, the square root and the result round only upwards.
    """
    if f < 0:
        x, y, f = x << -f, y << -f, 0
    c = _scaled(a, f)
    re, im = _gaussian_horner(c, x, y, 0)
    norm = re * re + im * im
    if not norm:
        return 0, 0
    total = _horner([abs(cj) for cj in c], isqrt(x * x + y * y))
    cut = max(total.bit_length() - bits, 0)
    total >>= cut
    norm = -(-norm >> 2 * cut)
    # sqrt(norm) / total < 2^h, so q < 2^(bits - 2) + 1.
    h = (norm.bit_length() + 1) // 2 - total.bit_length() + 1
    s = bits - 2 - h
    root = isqrt((norm << 2 * s) - 1) + 1
    return -(-root // total), -s


def _certified_real_roots(a, approx, bits):
    """The roots, ascending, as Gaussian dyadics (x, 0, f) with |x| cut
    to `bits` bits, or None.

    `a` are the integer coefficients, with a nonzero constant term, and
    `approx` one approximation per root, in any order, as Gaussian
    dyadics (x, y, f); only their real parts x / 2^f are read, sorted
    here over one denominator.  The polynomial is evaluated exactly, so
    at any size, at the midpoint of each pair of neighbouring real parts
    and at the mirror image of the outer midpoint in each end one.  If
    its sign changes n times over those n + 1 points, each of the n
    brackets holds one real root, and `_newton_in_bracket` refines it.
    None when the signs change fewer times or a refinement fails.
    """
    # The real parts as integers over 2^(g - 1), in ascending order, and
    # the points over 2^g.
    g = max(0, *(f for _, _, f in approx)) + 1
    ms = sorted(x << (g - 1 - f) for x, _, f in approx)
    points = [3 * ms[0] - ms[1], *map(add, ms, ms[1:]), 3 * ms[-1] - ms[-2]]
    c = _scaled(a, g)
    signs = [(v > 0) - (v < 0) for v in (_horner(c, m) for m in points)]
    # Equal neighbouring points give equal signs, so n changes also
    # prove that the points increase strictly.
    if not all(s * t < 0 for s, t in zip(signs, signs[1:])):
        return None
    roots = [
        _newton_in_bracket(a, (m, 0, g - 1), lo, hi, g, bits)
        for m, lo, hi in zip(ms, points, points[1:])
    ]
    return None if None in roots else roots


def _scaled(a, e):
    """Coefficients of 2^(e n) p(X / 2^e) as a polynomial in X."""
    n = len(a) - 1
    return [c << (e * (n - j)) for j, c in enumerate(a)]


def _newton_in_bracket(a, z, lo, hi, g, bits):
    """The root of the integer polynomial `a` in (lo / 2^g, hi / 2^g), as
    the Gaussian dyadic (x, 0, f) with |x| cut to `bits` bits, by Newton
    in fixed point from the real part of the Gaussian dyadic z.

    The root is held as X / 2^f, f chosen so that X has about `bits`
    bits, and each step subtracts P(X) // P'(X), with P the polynomial
    `_scaled` by f: p(x) / p'(x) in units of 2^-f.  Iteration ends at a
    step of at most one unit.  None when a step leaves the bracket, the
    derivative vanishes, MAX_NEWTON steps do not settle, or X has fewer
    than bits - 1 bits: the root is far smaller than z, as when the
    double it came from underflowed.
    """
    m, _, e = z
    f = max(bits - m.bit_length() + e, 0)
    c = _scaled(a, f)
    dc = [j * cj for j, cj in enumerate(c)][1:]
    lo, hi = lo << f, hi << f  # the bracket over 2^(f + g)
    fixed = _shift(m, f - e)
    for _ in range(MAX_NEWTON):
        slope = _horner(dc, fixed)
        if not slope:
            return None
        step = _horner(c, fixed) // slope
        fixed -= step
        if not lo < fixed << g < hi:
            return None
        if abs(step) <= 1:
            if fixed.bit_length() < bits - 1:
                return None
            return _normalized(fixed, 0, f, bits)
    return None


@dataclass(frozen=True)
class TrajectoryRecord:
    """The roots of g_k, and every value printed for step k, each computed
    once, all `Dyadic`s at precision precision_bits + 64.  es_ratio is
    |beta1| chi / (H_1 N_d (d+1)!^k), N_d read before subdividing.
    |beta1| grows like |alpha| (d+1)!^k, alpha = H_1 N_d / chi, so es_ratio
    tends to sign(chi): to -1 for P_95.  With no targets (d = 1),
    max_match_distance is 0 and product_of_others the empty product, 1."""

    k: int
    beta1: object
    beta1_abs: object
    es_ratio: object
    other_roots: tuple
    matched_targets: tuple
    matched_distances: tuple
    max_match_distance: object
    product_of_others: object


@dataclass(frozen=True)
class TrajectoryReport:
    d: int
    chi: int
    precision_bits: int
    records: tuple
    burn_in_k0: object
    es_ratio_final: object
    product_final: object
    max_match_distance_final: object
    beta1_real_from_k0: bool
    modulus_increasing_from_k0: bool


def _is_real(z, precision_bits):
    """Numerically real: |y| <= 2^-(precision_bits/4) |z| for z = (x, y)."""
    return z[1] ** 2 << 2 * (precision_bits // 4) <= z[0] ** 2 + z[1] ** 2


def _pick_beta1(roots, precision_bits):
    """The index of the root of largest modulus among integer pairs
    (x, y) over one power of 2, picked the same way in any order.

    Squared moduli x^2 + y^2 within relative 2^-(precision_bits/2) of the
    largest count as tied, since they differ by rounding only.  Among
    tied roots a numerically real one (`_is_real`) wins, then a non-real
    one with y > 0; the smaller x breaks what is left.  The sign of a
    numerically real root's y is noise, so it is not consulted.
    """
    t = precision_bits // 2
    norms = [x * x + y * y for x, y in roots]
    floor = (max(norms) << t) - max(norms)
    real = [_is_real(z, precision_bits) for z in roots]
    key = [(not r, not r and y < 0, x, y) for (x, y), r in zip(roots, real)]
    return min((i for i, n in enumerate(norms) if n << t >= floor),
               key=key.__getitem__)


def _assign(cost):
    """Columns minimising the summed cost, one distinct column per row.

    The Hungarian method (Kuhn 1955) with row and column potentials,
    O(rows^2 cols); needs rows <= cols.
    """
    rows, cols = len(cost), len(cost[0])
    u = [0] * (rows + 1)
    v = [0] * (cols + 1)
    owner = [0] * (cols + 1)  # 1-based row matched to each column; 0 = none
    way = [0] * (cols + 1)
    for row in range(1, rows + 1):
        owner[0] = row
        j0 = 0
        slack = [float("inf")] * (cols + 1)
        used = [False] * (cols + 1)
        while owner[j0]:
            used[j0] = True
            i0, delta, j1 = owner[j0], float("inf"), 0
            for j in range(1, cols + 1):
                if not used[j]:
                    reduced = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(cols + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    col = [0] * rows
    for j in range(1, cols + 1):
        if owner[j]:
            col[owner[j] - 1] = j - 1
    return col


def _match(roots, targets, precision_bits):
    """Each root's target index in a globally minimal-cost assignment;
    roots and targets are integer pairs (x, y) over one power of 2, no
    more roots than targets, each side in `find_roots`' order.

    Distances are cut to whole units of 2^u, the power of 2 at or below
    2^-(precision_bits/2) of the largest (whole numbers stay whole): the
    distance sqrt(c) is isqrt(c 2^-2u) units.  Equal summed units tie,
    and the tie goes to the lexicographically least assignment, so
    rounding noise never decides it: root i costs its units times
    cols^rows plus j cols^(rows-1-i) at target j.  As many roots as
    targets, all real, are ascending in that order, and pairing them in
    it is optimal (on a line, crossing pairs never cost less) and the
    least assignment, so the Hungarian search is skipped.
    """
    rows, cols = len(roots), len(targets)
    if rows == cols and not any(y for _, y in (*roots, *targets)):
        return tuple(range(rows))
    sq = [[(x - a) ** 2 + (y - b) ** 2 for a, b in targets] for x, y in roots]
    s = 2 * (precision_bits // 2 - (max(map(max, sq)).bit_length() - 1) // 2)
    scale = cols ** rows
    low = [cols ** (rows - 1 - i) for i in range(rows)]
    return tuple(_assign([
        [isqrt(_shift(c, s)) * scale + j * low[i] for j, c in enumerate(row)]
        for i, row in enumerate(sq)
    ]))


def _holds_from(flags):
    """Least k with flags[k:] nonempty and all true, or None."""
    return next((k for k in range(len(flags)) if all(flags[k:])), None)


def theorem_report(p, k_max, precision_bits=256):
    """Per-k dominant and bounded roots of g_k, for p or its ChainVector."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    cv = chain_vector(p)
    d = cv.dim
    if d < 1:
        raise DimensionZero("needs dimension >= 1")
    chi = euler_characteristic(cv)
    if chi == 0:
        raise ZeroEulerCharacteristic("the growth law requires chi != 0")
    h1 = H_vector(d)[1]
    targets = RootSet((), (), precision_bits, (), 0)  # none when d = 1
    if d >= 2:
        targets = find_roots(H_polynomial(d), precision_bits)
    records, real, tops = [], [], []
    bits = precision_bits + 64
    cv_k = cv  # the chain vector after k subdivisions
    for k in range(k_max + 1):
        if k:
            cv_k = transfer_iterate(cv_k, 1)
        rs = find_roots(g_from_chain_vector(cv_k), precision_bits)
        i = _pick_beta1(rs.gaussians, precision_bits)
        x, y = rs.gaussians[i]
        real.append(_is_real((x, y), precision_bits))
        tops.append((x * x + y * y, rs.exponent))
        # The other roots and the targets over one power of 2.
        e = max(rs.exponent, targets.exponent)
        zs, ts = (
            [(a << e - g, b << e - g) for a, b in pairs] for pairs, g in (
                (rs.gaussians[:i] + rs.gaussians[i + 1:], rs.exponent),
                (targets.gaussians, targets.exponent)))
        picks = _match(zs, ts, precision_bits)
        near = [(a - u) ** 2 + (b - v) ** 2
                for (a, b), (u, v) in zip(zs, map(ts.__getitem__, picks))]
        others = rs.roots[:i] + rs.roots[i + 1:]
        matched = tuple(map(targets.roots.__getitem__, picks))
        dists = tuple(abs(r - t) for r, t in zip(others, matched))
        beta1_abs = abs(rs.roots[i])
        growth = Fraction(factorial(d + 1)) ** k * h1 * cv[d]
        # As mpf(a) / mpf(b) was: each side rounded, then divided.
        predicted = (rounded(growth.numerator, 0, 0, bits)
                     / rounded(growth.denominator, 0, 0, bits))
        records.append(TrajectoryRecord(
            k=k, beta1=rs.roots[i], beta1_abs=beta1_abs,
            es_ratio=beta1_abs * chi / predicted,
            other_roots=others, matched_targets=matched,
            matched_distances=dists,
            max_match_distance=(
                dists[near.index(max(near))] if near
                else Dyadic(0, 0, 0, bits)),
            # As mp.fprod was: from 1, left to right.
            product_of_others=reduce(mul, others, Dyadic(1, 0, 0, bits))))
    real_from = _holds_from(real)
    # |beta1|^2 is n / 4^g at each step: compared exactly.
    increasing_from = _holds_from([
        nb << 2 * max(ga - gb, 0) > na << 2 * max(gb - ga, 0)
        for (na, ga), (nb, gb) in zip(tops, tops[1:])
    ])
    # Both conditions are monotone in k, so both hold from the later.
    k0 = None
    if real_from is not None and increasing_from is not None:
        k0 = max(real_from, increasing_from)
    final = records[-1]
    return TrajectoryReport(
        d=d, chi=chi, precision_bits=precision_bits, records=tuple(records),
        burn_in_k0=k0, es_ratio_final=final.es_ratio,
        product_final=final.product_of_others,
        max_match_distance_final=final.max_match_distance,
        beta1_real_from_k0=real_from is not None,
        modulus_increasing_from_k0=increasing_from is not None)
