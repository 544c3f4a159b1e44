"""High-precision root finding and convergence diagnostics.

Roots are found in two routes, both started on one circle per edge of
the Newton polygon (Bini, "Numerical computation of polynomial zeros by
means of Aberth's method", 1996), read in doubles from the exact
coefficients.  The fast route proves them real: Aberth-Ehrlich
iteration in complex doubles gives approximations, taken exactly as
dyadics (m, e) = m / 2^e; the exact integer polynomial changes sign
between each pair of neighbouring ones (and beyond each end), so every
root is real and alone in its bracket, and fixed-point Newton on
integers refines it there to a dyadic, which `find_roots` makes an mpc.
Barycentric subdivision makes the numerators real-rooted (Brenti and
Welker, "f-vectors of barycentric subdivisions", 2008), so this route
carries nearly every step.  When a double does not hold the polynomial,
a start or a root, the signs do not prove it, or a Newton step leaves
its bracket, the same Aberth iteration runs in mpmath at the working
precision, warm-started from the doubles when there are any.  Every
root must have a backward error of at most 2^-(bits/2).  The trajectory
report tracks, per subdivision step, the dominant root against its
predicted growth and the others against the limit polynomial's roots.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import exp, factorial, lcm, log, pi
from operator import add

import mpmath as mp

from .errors import (
    DegreeZero,
    DimensionZero,
    NoConvergence,
    ZeroEulerCharacteristic,
)
from .poset import chain_vector, euler_characteristic
from .subdivision import H_polynomial, H_vector, transfer_iterate
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
    roots: tuple
    residuals: tuple  # backward error |p(z)| / sum |c_i| |z|^i per root
    precision_bits: int


def _to_mpf(fr):
    return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)


def _horner(coeffs, z):
    # Any number type: mpc or complex roots, exact integers in Newton.
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _backward_error(coeffs, abs_coeffs, z, value=None):
    """|p(z)| / sum |c_i| |z|^i: the smallest relative change of the
    coefficients that makes z an exact root."""
    if value is None:
        value = _horner(coeffs, z)
    if not value:
        return abs(value)
    return abs(value) / _horner(abs_coeffs, abs(z))


def find_roots(p, precision_bits=256):
    """All complex roots of an exact polynomial, deterministically.

    Exactly zero low coefficients give exact zero roots.  The rest come
    from `_certified_real_roots` when it can prove them all real and
    simple: those roots are accurate to about `precision_bits + 64`
    bits and have an imaginary part of exactly 0.  Otherwise `_aberth`
    finds them at `precision_bits + 64` working bits, warm-started from
    the double-precision approximations when there are any.  Either
    way, every root's backward error |p(z)| / sum |c_i| |z|^i must be
    at most 2^-(precision_bits/2), else NoConvergence is raised; those
    errors are returned as the residuals.  Roots are sorted by real
    part, then imaginary part, and each conjugate pair, whose real parts
    differ by rounding only, puts its member with im < 0 first.
    """
    if p.degree < 1:
        raise DegreeZero("root finding needs degree >= 1")
    if precision_bits < 53:
        raise ValueError("precision_bits must be >= 53")
    zeros = next(i for i, c in enumerate(p.coeffs) if c != 0)
    with mp.workprec(precision_bits + 64):
        coeffs = [_to_mpf(c) for c in p.coeffs]
        abs_coeffs = [abs(c) for c in coeffs]
        n = p.degree - zeros
        tol = mp.mpf(2) ** (-(precision_bits // 2))
        if n == 0:
            roots = []
        elif n == 1:
            roots = [mp.mpc(-coeffs[zeros] / coeffs[zeros + 1])]
        else:
            roots = _nonzero_roots(
                p.coeffs[zeros:], coeffs[zeros:], tol, precision_bits + 64
            )
            roots = [
                z if isinstance(z, mp.mpc) else mp.mpc(mp.ldexp(z[0], -z[1]))
                for z in roots
            ]
        roots += [mp.mpc(0) for _ in range(zeros)]
        roots.sort(key=lambda z: (mp.re(z), mp.im(z)))
        # Neighbours a, b within tol |a| of conj(a) are a conjugate pair.
        for i in range(len(roots) - 1):
            a, b = roots[i:i + 2]
            if a.imag > 0 and abs(b - mp.conj(a)) <= tol * abs(a):
                roots[i:i + 2] = b, a
        # A root with im exactly 0 gives the same error in real arithmetic.
        residuals = [
            _backward_error(coeffs, abs_coeffs, z if z.imag else z.real)
            for z in roots
        ]
        if any(r > tol for r in residuals):
            raise NoConvergence(
                f"backward error above 2^-{precision_bits // 2}; "
                "raise precision"
            )
        return RootSet(tuple(roots), tuple(residuals), precision_bits)


def _nonzero_roots(exact, coeffs, tol, bits):
    """The roots of a polynomial of degree >= 2 with a nonzero constant
    term, given exactly and as mpf: dyadics (m, e) certified real to about
    `bits` bits when they can be, else mpc from `_aberth` at the working
    precision from the doubles if any, else from the Newton polygon."""
    starts = _newton_polygon_starts(exact)
    approx = _float_aberth(exact, starts)
    if approx is not None:
        # Each real part as the dyadic (m, e), exactly m / 2^e, e >= 0.
        ratios = (x.as_integer_ratio() for x in sorted(z.real for z in approx))
        xs = [(m, den.bit_length() - 1) for m, den in ratios]
        roots = _certified_real_roots(exact, xs, bits)
        if roots is not None:
            return roots
        # Starts all on the real axis would keep the sweeps of a real
        # polynomial there (see START_ANGLE), away from any complex root.
        if any(z.imag for z in approx):
            return _aberth(coeffs, tol, [mp.mpc(z) for z in approx])
    return _aberth(coeffs, tol, [mp.exp(r) * mp.expj(t) for r, t in starts])


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
    """Aberth-Ehrlich sweeps over the roots of a polynomial with a
    nonzero constant term, one per start, started and stopped as in
    Bini (1996).

    The arithmetic is that of the coefficients and starts: mpmath at
    the working precision, or complex doubles.  The starts lie on the
    `_newton_polygon_starts` circles, or are earlier approximations.
    Each sweep updates every root in turn by the Aberth correction.  The
    stop is relative: iteration ends after the first sweep that began
    with every root's backward error |p(z)| / sum |c_i| |z|^i at most
    `tol`, a test that holds at any root size, where an absolute
    |p(z)| < tol does not.  That last sweep still updates each root,
    which polishes it to near working precision.  Raises NoConvergence
    after MAX_SWEEPS sweeps.
    """
    z = list(starts)
    n = len(z)
    abs_coeffs = [abs(c) for c in coeffs]
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    for _ in range(MAX_SWEEPS):
        converged = True
        for i in range(n):
            pv = _horner(coeffs, z[i])
            if _backward_error(coeffs, abs_coeffs, z[i], pv) > tol:
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


def _certified_real_roots(exact, xs, bits):
    """The roots as dyadics to about `bits` bits, or None.

    `exact` are the coefficients, with a nonzero constant term, and `xs`
    one real approximation per root, ascending, as dyadics (m, e), each
    m / 2^e.  The integer-scaled polynomial is evaluated exactly, so at
    any size, at the midpoint of each pair of neighbouring approximations
    and at the mirror image of the outer midpoint in each end one.  If
    its sign changes n times over those n + 1 points, each of the n
    brackets holds one real root, and `_newton_in_bracket` refines it.
    None when the signs change fewer times or a refinement fails.
    """
    scale = lcm(*(c.denominator for c in exact))
    a = [int(c * scale) for c in exact]
    # The points as integers over one denominator 2^g.
    g = max(e for _, e in xs) + 1
    ms = [m << (g - 1 - e) for m, e in xs]
    points = [3 * ms[0] - ms[1], *map(add, ms, ms[1:]), 3 * ms[-1] - ms[-2]]
    c = _scaled(a, g)
    signs = [(v > 0) - (v < 0) for v in (_horner(c, m) for m in points)]
    # Equal neighbouring points give equal signs, so n changes also
    # prove that the points increase strictly.
    if not all(s * t < 0 for s, t in zip(signs, signs[1:])):
        return None
    roots = [
        _newton_in_bracket(a, x, lo, hi, g, bits)
        for x, lo, hi in zip(xs, points, points[1:])
    ]
    return None if None in roots else roots


def _scaled(a, e):
    """Coefficients of 2^(e n) p(X / 2^e) as a polynomial in X."""
    n = len(a) - 1
    return [c << (e * (n - j)) for j, c in enumerate(a)]


def _newton_in_bracket(a, x, lo, hi, g, bits):
    """The root of the integer polynomial `a` in (lo / 2^g, hi / 2^g), to
    about `bits` bits, by Newton in fixed point from the dyadic x = (m, e),
    that is m / 2^e.

    The root is held as X / 2^f, f chosen so that X has about `bits`
    bits, and each step subtracts P(X) // P'(X), with P the polynomial
    `_scaled` by f: p(x) / p'(x) in units of 2^-f.  Iteration ends at a
    step of at most one unit, with the dyadic root (X, f).  None when a
    step leaves the bracket, the derivative vanishes, MAX_NEWTON steps
    do not settle, or X has fewer than bits - 1 bits: the root is far
    smaller than `x`, as when the double it came from underflowed.
    """
    m, e = x
    f = max(bits - m.bit_length() + e, 0)
    c = _scaled(a, f)
    dc = [j * cj for j, cj in enumerate(c)][1:]
    lo, hi = lo << f, hi << f  # the bracket over 2^(f + g)
    fixed = (m << f) >> e
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
            return fixed, f
    return None


@dataclass(frozen=True)
class TrajectoryRecord:
    """The roots of g_k.  es_ratio is |beta1| chi / (H_1 N_d (d+1)!^k), N_d
    read before subdividing.  |beta1| grows like |alpha| (d+1)!^k, alpha =
    H_1 N_d / chi, so es_ratio tends to sign(chi): to -1 for P_95."""

    k: int
    beta1: object
    beta1_abs: object
    es_ratio: object
    other_roots: tuple
    matched_targets: tuple
    matched_distances: tuple
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
    """Numerically real: |im z| <= 2^-(precision_bits/4) |z|."""
    return abs(mp.im(z)) <= mp.mpf(2) ** -(precision_bits // 4) * abs(z)


def _pick_beta1(roots, precision_bits):
    """The root of largest modulus, picked the same way in any order.

    Moduli within relative 2^-(precision_bits/2) of the largest count as
    tied, since they differ by rounding only.  Among tied roots a
    numerically real one (`_is_real`) wins, then a non-real one with
    im > 0; the smaller real part breaks what is left.  The sign of a
    numerically real root's im is noise, so it is not consulted.
    """
    top = max(abs(z) for z in roots)
    floor = top * (1 - mp.mpf(2) ** -(precision_bits // 2))

    def key(z):
        real = _is_real(z, precision_bits)
        return (not real, not real and mp.im(z) < 0, mp.re(z), mp.im(z))

    return min((z for z in roots if abs(z) >= floor), key=key)


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
    """Globally minimal-cost assignment of roots to fixed targets.

    Costs are distances.  Assignments whose summed costs agree to about
    2^-(precision_bits/2) of the largest distance count as tied, and the
    tie goes to the lexicographically least one (earliest target for the
    first root, and so on), so rounding noise never decides it.

    When as many real roots as real targets come in ascending order, as
    `theorem_report` passes them, pairing them in that order is optimal
    (on a line, crossing pairs never cost less than uncrossed ones) and
    is the least assignment of all, so the Hungarian search is skipped.
    """
    if not targets:
        return (), ()
    rows, cols = len(roots), len(targets)
    if rows == cols and _ascending_reals(roots) and _ascending_reals(targets):
        return tuple(targets), tuple(abs(r - t) for r, t in zip(roots, targets))
    dist = [[abs(r - t) for t in targets] for r in roots]
    unit = max(map(max, dist)) * mp.mpf(2) ** -(precision_bits // 2)
    unit /= cols ** rows
    picks = _assign(
        [
            [c + unit * j * cols ** (rows - 1 - i) for j, c in enumerate(row)]
            for i, row in enumerate(dist)
        ]
    )
    matched = tuple(targets[j] for j in picks)
    return matched, tuple(dist[i][j] for i, j in enumerate(picks))


def _ascending_reals(zs):
    return all(not z.imag for z in zs) and all(
        a.real <= b.real for a, b in zip(zs, zs[1:])
    )


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
    targets = ()
    if d >= 2:
        targets = find_roots(H_polynomial(d), precision_bits).roots
    records = []
    cv_k = cv  # the chain vector after k subdivisions
    with mp.workprec(precision_bits + 64):
        for k in range(k_max + 1):
            if k:
                cv_k = transfer_iterate(cv_k, 1)
            gk = g_from_chain_vector(cv_k)
            roots = find_roots(gk, precision_bits).roots
            beta1 = _pick_beta1(roots, precision_bits)
            others = tuple(z for z in roots if z is not beta1)
            matched, dists = _match(others, targets, precision_bits)
            growth = Fraction(factorial(d + 1)) ** k * h1 * cv[d]
            es_ratio = abs(beta1) * chi / _to_mpf(growth)
            product = mp.mpc(1)
            for z in others:
                product *= z
            records.append(
                TrajectoryRecord(
                    k=k,
                    beta1=beta1,
                    beta1_abs=abs(beta1),
                    es_ratio=es_ratio,
                    other_roots=others,
                    matched_targets=matched,
                    matched_distances=dists,
                    product_of_others=product,
                )
            )
        real_from = _holds_from(
            [_is_real(r.beta1, precision_bits) for r in records]
        )
        increasing_from = _holds_from(
            [b.beta1_abs > a.beta1_abs for a, b in zip(records, records[1:])]
        )
        # Both conditions are monotone in k, so both hold from the later.
        k0 = None
        if real_from is not None and increasing_from is not None:
            k0 = max(real_from, increasing_from)
        final = records[-1]
        return TrajectoryReport(
            d=d,
            chi=chi,
            precision_bits=precision_bits,
            records=tuple(records),
            burn_in_k0=k0,
            es_ratio_final=final.es_ratio,
            product_final=final.product_of_others,
            max_match_distance_final=max(final.matched_distances, default=mp.mpf(0)),
            beta1_real_from_k0=real_from is not None,
            modulus_increasing_from_k0=increasing_from is not None,
        )
