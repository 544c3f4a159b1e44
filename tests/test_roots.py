import csv
import random
from fractions import Fraction
from itertools import permutations
from math import isfinite, lcm
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    FIXED_SEED,
    Poly,
    dags,
    gaussian_pairs,
    match_by_mpf_units,
    match_by_permutations,
    match_by_perturbation,
    mp_newton_polygon_starts,
    mpc_gaussian,
    pick_beta1_by_mpf,
    root_set,
    sign_scan_root_count,
    sort_like_find_roots,
)
from posetzeta import (
    DegreeZero,
    DimensionZero,
    ExactPolynomial,
    H_polynomial,
    NoConvergence,
    ZeroEulerCharacteristic,
    build_poset,
    build_Pn,
    chain_vector,
    euler_characteristic,
    find_roots,
    g_k_polynomial,
    save_poset,
    simplex_face_poset,
    strict_chain_vector,
    theorem_report,
)
from posetzeta import roots as roots_module
from posetzeta.cli import fmt_float, main
from posetzeta.roots import (
    _aberth,
    _backward_error_bound,
    _certified_real_roots,
    _fixed_aberth,
    _float_aberth,
    _is_real,
    _match,
    _newton_in_bracket,
    _newton_polygon_starts,
    _nonzero_roots,
    _pick_beta1,
    _polygon_start,
    _to_mpf,
)
from posetzeta.zeta import g_from_chain_vector


def p6():
    return build_poset(["2", "3", "5", "6"], [("2", "6"), ("3", "6")])


def assert_backward_errors(poly, roots, bits):
    """|p(z)| <= 2^-(bits/2) * sum |c_i| |z|^i for every root, evaluated
    from the exact coefficients at higher precision."""
    with mp.workprec(2 * bits):
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in poly.coeffs]
        for z in roots:
            value = abs(mp.polyval(coeffs[::-1], z))
            scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(coeffs))
            assert value <= mp.mpf(2) ** -(bits // 2) * scale, z


def aberth_oracle(poly, bits=256):
    """The roots by full-precision `_aberth` from the mpmath
    Newton-polygon starts alone, exact zero roots apart, sorted as
    find_roots sorts."""
    zeros = next(i for i, c in enumerate(poly.coeffs) if c)
    with mp.workprec(bits + 64):
        coeffs = [_to_mpf(c) for c in poly.coeffs[zeros:]]
        with mp.workprec(53):
            starts = mp_newton_polygon_starts(coeffs)
        tol = mp.mpf(2) ** -(bits // 2)
        roots = _aberth(coeffs, tol, starts)
        roots += [mp.mpc(0)] * zeros
        return sort_like_find_roots(roots, tol)


def assert_agree(got, want, rel_bits, bits=256):
    assert len(got) == len(want)
    with mp.workprec(bits + 64):
        for a, b in zip(got, want):
            assert abs(a - b) <= mp.mpf(2) ** -rel_bits * abs(b), (a, b)


def recorded(calls, fn):
    """fn, appending the arguments of each call to `calls`."""

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper


def integer_coeffs(poly):
    den = lcm(*(Fraction(c).denominator for c in poly.coeffs))
    return [int(c * den) for c in poly.coeffs]


def gaussian_value(z):
    """The exact value of the Gaussian dyadic (x, y, f), as a pair of
    Fractions."""
    x, y, f = z
    return Fraction(x) / Fraction(2) ** f, Fraction(y) / Fraction(2) ** f


def product(factors):
    poly = Poly([1])
    for f in factors:
        poly = poly * Poly(f)
    return poly


S = Poly([0, 1])


# Factors a s + b as pairs (a, b), no two with the same root -b/a.
distinct_linear_factors = st.lists(
    st.tuples(st.integers(1, 6), st.integers(-6, 6)),
    min_size=2,
    max_size=7,
    unique_by=lambda f: Fraction(-f[1], f[0]),
)


class TestCertifiedRoots:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(distinct_linear_factors)
    def test_distinct_linear_factors(self, factors):
        # The roots -b/a of the factors a s + b lie in [-6, 6], at least
        # 1/30 apart, so cells of 1/120 isolate every one of them.
        poly = product([(b, a) for a, b in factors])
        rs = find_roots(poly)
        assert all(mp.im(z) == 0 for z in rs.roots)
        assert sign_scan_root_count(poly.coeffs, -7, 7, 1680) == poly.degree
        assert_agree(rs.roots, aberth_oracle(poly), 128)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(distinct_linear_factors, st.randoms(use_true_random=False))
    def test_starts_in_any_order(self, factors, rng):
        # The certificate takes a nonzero constant term.
        factors = [(a, b) for a, b in factors if b]
        assume(len(factors) >= 2)
        coeffs = integer_coeffs(product([(b, a) for a, b in factors]))
        exact = sorted(Fraction(-b, a) for a, b in factors)
        xs = [dyadic(float(r)) for r in exact]
        roots = _certified_real_roots(coeffs, xs, 320)
        assert [y for _, y, _ in roots] == [0] * len(exact)
        for (x, _, f), r in zip(roots, exact):
            assert abs(Fraction(x, 2**f) - r) <= Fraction(1, 2**300)
        shuffled = xs[:]
        rng.shuffle(shuffled)
        assert _certified_real_roots(coeffs, shuffled, 320) == roots
        assert _certified_real_roots(coeffs, xs[::-1], 320) == roots

    def test_sign_scan_confirms_certified_count(self):
        # Cells of 0.01 are finer than the gaps between these roots.
        cases = [(H_polynomial(d), -30) for d in range(2, 7)] + [
            (g_k_polynomial(build_Pn(30), k), -200) for k in (2, 3)
        ]
        for poly, lo in cases:
            rs = find_roots(poly)
            assert all(mp.im(z) == 0 for z in rs.roots)
            count = sign_scan_root_count(integer_coeffs(poly), lo, 0, -lo * 100)
            assert count == len(rs.roots) == poly.degree

    @pytest.mark.parametrize("d", range(2, 31))
    def test_limit_roots_certified_negative_ascending(self, d):
        # H_d is real-rooted with negative roots (Brenti and Welker 2008),
        # and the certificate proves it: each root has an imaginary part
        # of exactly 0, so the sorted pairing of `_match` applies.
        roots = find_roots(H_polynomial(d)).roots
        assert len(roots) == H_polynomial(d).degree
        assert all(z.imag == 0 for z in roots)
        reals = [z.real for z in roots]
        assert reals[-1] < 0
        assert all(a < b for a, b in zip(reals, reals[1:]))

    @pytest.mark.parametrize(
        "poly, rel_bits",
        [
            (1 + S * S, 128),
            # A backward error of 2^-128 moves a double root by about
            # 2^-64, and a pair 2^-60 apart by up to 2^-68.
            ((S + 1) * (S + 1) * (S + 2), 64),
            # No double lies between 1 + 2^-60 and 1 + 2^-59.
            (
                (S - 1 - Fraction(1, 2**60))
                * (S - 1 - Fraction(1, 2**59))
                * (S + 2),
                64,
            ),
            ((S + 10**400) * (S + 1) * (S + 2), 128),
            # The root -10^-400 is 0.0 as a double.
            ((S + Fraction(1, 10**400)) * (S + 1) * (S + 2), 128),
        ],
        ids=[
            "conjugate-pair",
            "double-root",
            "close-pair",
            "above-1e308",
            "below-1e-308",
        ],
    )
    def test_fallback_matches_oracle(self, poly, rel_bits):
        sweeps = []
        with mock.patch(
            "posetzeta.roots._fixed_aberth", recorded(sweeps, _fixed_aberth)
        ):
            rs = find_roots(poly)
        assert sweeps  # the full-precision route ran
        assert_agree(rs.roots, aberth_oracle(poly), rel_bits)
        assert all(r <= mp.mpf(2) ** -128 for r in rs.residuals)


def dyadic(x):
    """The dyadic (m, e) of a double, and the exact value m / 2^e of one."""
    if isinstance(x, float):
        m, den = x.as_integer_ratio()
        return m, den.bit_length() - 1
    m, e = x
    return Fraction(m, 2**e)


class TestFallbackExits:
    def test_newton_leaves_bracket(self):
        # From 1.4 the first step on s^2 - 2 lands near sqrt(2), out of
        # (1, 1.40625) and into (1, 1.5), both over 2^7.
        x = dyadic(1.4)
        assert _newton_in_bracket([-2, 0, 1], x, 128, 180, 7, 256) is None
        root = dyadic(_newton_in_bracket([-2, 0, 1], x, 128, 192, 7, 256))
        # |root - sqrt(2)| <= 2^-250, exactly.
        assert abs(root * root - 2) <= Fraction(3, 2**250)

    def test_newton_zero_slope(self):
        # s^3 - 3s - 1 has slope 0 at s = 1 and a root near 1.879.
        # The bracket (0.5, 2.5), over 2^1.
        a = [-1, -3, 0, 1]
        assert _newton_in_bracket(a, dyadic(1.0), 1, 5, 1, 256) is None
        assert _newton_in_bracket(a, dyadic(1.9), 1, 5, 1, 256)

    def test_newton_step_limit_falls_back(self, monkeypatch):
        # No Newton run settles in one step, so every certified root
        # fails and the full-precision sweeps find them all.
        monkeypatch.setattr(roots_module, "MAX_NEWTON", 1)
        x, bracket = dyadic(1.4), (2, 3, 1)  # (1, 1.5) over 2^1
        assert _newton_in_bracket([-2, 0, 1], x, *bracket, 256) is None
        sweeps = []
        monkeypatch.setattr(
            roots_module, "_fixed_aberth", recorded(sweeps, _fixed_aberth)
        )
        for poly in (H_polynomial(6), g_k_polynomial(build_Pn(30), 2)):
            sweeps.clear()
            rs = find_roots(poly)
            assert sweeps
            assert_agree(rs.roots, aberth_oracle(poly), 128)

    @pytest.mark.parametrize("sign", [-1, 1], ids=["low", "high"])
    def test_end_point_beyond_double_range(self, sign):
        # The roots are sign B and -sign, B = 1.5 2^1023.  The point beyond
        # the far one, sign (3 B + 1) / 2, is past the largest double, and
        # exact points certify the roots all the same.
        big = 3 << 1022
        a = [-big, sign * (1 - big), 1]
        want = sorted([sign * big, -sign])
        roots = _certified_real_roots(a, [(x, 0) for x in want], 320)
        got = [(dyadic((x, f)), y) for x, y, f in roots]
        assert got == [(b, 0) for b in want]
        assert [mp.re(z) for z in find_roots(ExactPolynomial(a)).roots] == want


class TestAberth:
    def test_start_at_a_critical_point_is_nudged(self):
        # s^2 - 1 has slope 0 at the start 0, which moves off it first.
        z = _aberth([-1.0, 0.0, 1.0], 2**-40, [0j, 2 + 1j])
        assert sorted(round(w.real, 9) for w in z) == [-1, 1]
        assert all(abs(w.imag) < 1e-9 for w in z)

    def test_sweep_limit_raises(self, monkeypatch):
        monkeypatch.setattr(roots_module, "MAX_SWEEPS", 1)
        with pytest.raises(NoConvergence, match="within 1 sweeps"):
            _aberth([-1.0, 0.0, 1.0], 2**-40, [0.5 + 0.5j, -0.3 + 0.2j])


def chain(d):
    labels = [f"c{i}" for i in range(d + 1)]
    return build_poset(labels, list(zip(labels, labels[1:])))


def fan():
    """a < b, c, d < e: chain vector (5, 7, 3), chi = 1, and g_0 = 5 - 3s +
    s^2 has the conjugate roots (3 -+ i sqrt(11)) / 2."""
    return build_poset(list("abcde"), [("a", x) for x in "bcd"]
                       + [(x, "e") for x in "bcd"])


def spread_polynomial(rng):
    """A polynomial with 2..9 roots whose moduli lie 10 or more decades
    apart between 10^-300 and 10^400, as exact Fractions: real roots and
    conjugate pairs, the pairs at least 0.1 rad off the real axis."""
    decades = sorted(rng.sample(range(-300, 401, 10), rng.randint(2, 6)))
    poly, degree = Poly([1]), 0
    for e in decades:
        unit = Fraction(10) ** e
        re = Fraction(rng.randint(-9999, 9999), 1000) * unit
        if degree < 7 and rng.random() < 0.5:
            im = Fraction(rng.randint(1000, 9999), 1000) * unit
            poly = poly * Poly([re * re + im * im, -2 * re, 1])
            degree += 2
        else:
            poly = poly * Poly([-(re or unit), 1])
            degree += 1
    return ExactPolynomial(poly.coeffs)


def spread_polynomials():
    rng = random.Random(FIXED_SEED)
    return [spread_polynomial(rng) for _ in range(30)]


def fixed_point_cases():
    # g_19 of the chain with d = 8 has a root of about 3.3e101, past
    # 2^320; g_11 of the chain with d = 20 one of about 2.7e200.
    return [g_k_polynomial(chain(8), 19), g_k_polynomial(chain(20), 11)]


def exact_value(coeffs, z):
    """p(z) exactly, as a pair of Fractions, at an mpc z."""
    # An mpf is held as (sign, mantissa, exponent, bit count).
    x, y = (
        (-1) ** sign * man * Fraction(2) ** exp
        for sign, man, exp, _ in (z.real._mpf_, z.imag._mpf_)
    )
    re = im = Fraction(0)
    for c in reversed(coeffs):
        re, im = re * x - im * y + c, re * y + im * x
    return re, im


class NoMpmath:
    """Stands in for the mpmath module: any use of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"mp.{name} used")


class TestFixedAberth:
    def test_spread_roots_match_oracle(self):
        sweeps = []
        with mock.patch(
            "posetzeta.roots._fixed_aberth", recorded(sweeps, _fixed_aberth)
        ):
            polys = spread_polynomials()
            for poly in polys:
                rs = find_roots(poly)
                assert_agree(rs.roots, aberth_oracle(poly), 128)
        # Doubles hold none of these, so the sweeps find every one.
        assert len(sweeps) == len(polys)

    @pytest.mark.parametrize(
        "poly", fixed_point_cases(), ids=["chain-8-k19", "chain-20-k11"]
    )
    def test_roots_past_working_bits_match_oracle(self, poly):
        # A root past 2^bits has f < 0: truncated to 2^-f, the
        # coefficients would lose the leading 1.  Its Aberth terms are
        # far below 2^-(2 bits): held at that absolute scale, they would
        # all be 0.  Either way the sweeps do not converge.
        sweeps = []
        with mock.patch(
            "posetzeta.roots._fixed_aberth", recorded(sweeps, _fixed_aberth)
        ):
            rs = find_roots(poly)
        assert sweeps
        assert_agree(rs.roots, aberth_oracle(poly), 128)

    def test_residuals_bound_the_backward_error(self):
        polys = spread_polynomials() + fixed_point_cases() + [
            H_polynomial(6), ExactPolynomial([1, 0, 1]),
        ]
        exact_roots = 0
        for poly in polys:
            rs = find_roots(poly)
            with mp.workprec(2 * (256 + 64)):
                coeffs = [_to_mpf(c) for c in poly.coeffs]
                for z, r in zip(rs.roots, rs.residuals):
                    assert r <= mp.mpf(2) ** -128
                    if not r:
                        # Rounding would make mpmath's value positive.
                        assert exact_value(poly.coeffs, z) == (0, 0)
                        exact_roots += 1
                        continue
                    value = abs(mp.polyval(coeffs[::-1], z))
                    total = mp.polyval([abs(c) for c in coeffs[::-1]], abs(z))
                    assert r >= value / total, (poly, z)
        # Integer roots below 2^320 are met exactly.
        assert exact_roots

    def test_start_at_a_critical_point_is_nudged(self):
        # s^2 - 1 has slope 0 at the start 0, which steps to 1, a root.
        roots = _fixed_aberth([-1, 0, 1], [(0, 0, 0), (2, 1, 0)], 320, 128)
        assert sorted(Fraction(x, 2**f) for x, _, f in roots) == [-1, 1]
        assert all(y == 0 for _, y, _ in roots)

    def test_sweep_limit_raises(self, monkeypatch):
        monkeypatch.setattr(roots_module, "MAX_SWEEPS", 1)
        with pytest.raises(NoConvergence, match="within 1 sweeps"):
            _fixed_aberth([-1, 0, 1], [(1, 1, 1), (-3, 2, 3)], 320, 128)

    def test_integer_sweeps_use_no_mpmath(self, monkeypatch):
        # Every step below the one mpc builder of `find_roots` runs
        # without mpmath: the doubles, the certificate and the sweeps.
        monkeypatch.setattr(roots_module, "mp", NoMpmath())
        h = integer_coeffs(H_polynomial(6))
        approx = _float_aberth(h, _newton_polygon_starts(h))
        assert _certified_real_roots(h, [dyadic(z.real) for z in approx], 320)
        a = [int(c) for c in fixed_point_cases()[0].coeffs]
        starts = _newton_polygon_starts(a)
        assert _float_aberth(a, starts) is None
        starts = [_polygon_start(*s) for s in starts]
        roots = _fixed_aberth(a, starts, 320, 128)
        for x, y, f in roots:
            q, e = _backward_error_bound(a, x, y, f, 320)
            assert Fraction(q) * Fraction(2) ** e <= Fraction(1, 2**128)


def random_coefficients(rng, count):
    """`count` coefficient lists of degree 2..12, half int and half
    Fraction, with nonzero ends and sizes from 2^10 to 2^60."""
    lists = []
    for k in range(count):
        bits = rng.choice((10, 30, 60))

        def coeff():
            num = rng.randint(-(2**bits), 2**bits)
            return Fraction(num, rng.randint(1, 2**bits)) if k % 2 else num

        coeffs = [coeff() for _ in range(rng.randint(3, 13))]
        coeffs[0] = coeffs[0] or 1
        coeffs[-1] = coeffs[-1] or 1
        lists.append(coeffs)
    return lists


class TestNewtonPolygonStarts:
    def test_double_starts_match_mpmath_oracle(self):
        cases = random_coefficients(random.Random(FIXED_SEED), 200) + [
            list(H_polynomial(d).coeffs) for d in range(2, 13)
        ]
        for coeffs in cases:
            got = _newton_polygon_starts(coeffs)
            with mp.workprec(53):
                want = mp_newton_polygon_starts([_to_mpf(c) for c in coeffs])
            assert len(got) == len(want) == len(coeffs) - 1
            with mp.workprec(128):
                for (r, t), w in zip(got, want):
                    z = mp.exp(r) * mp.expj(t)
                    assert abs(z - w) <= mp.mpf(2) ** -45 * abs(w), coeffs

    @pytest.mark.parametrize(
        "poly",
        [S * S - 10**700, Fraction(1, 10**320) * S * S - 10**308],
        ids=["coefficient", "radius"],
    )
    def test_beyond_double_range(self, poly):
        # A double holds neither 10^700 nor the start radii 10^350 and
        # 10^314; 10^-320 is a subnormal double.
        starts = _newton_polygon_starts(poly.coeffs)
        assert all(isfinite(r) and isfinite(t) for r, t in starts)
        assert _float_aberth(poly.coeffs, starts) is None
        assert_agree(find_roots(poly).roots, aberth_oracle(poly), 128)


class TestFindRoots:
    @pytest.mark.parametrize(
        "coeffs, route",
        [
            # (the doubles failed, the full-precision sweeps ran), or None
            # when neither was tried.
            (H_polynomial(4).coeffs, (False, False)),
            ((1 + S * S).coeffs, (False, True)),
            (((S + 10**400) * (S + 1) * (S + 2)).coeffs, (True, True)),
            ((2, -1), None),
            ((5,), None),
        ],
        ids=["certified", "doubles", "polygon", "linear", "constant"],
    )
    def test_nonzero_roots_are_mpc_on_every_route(self, coeffs, route):
        # Below find_roots every route gives Gaussian dyadics (x, y, f) of
        # ints within 2^bits, bits = 256 + 64, without mpmath; each
        # becomes exactly one mpc of find_roots.
        doubles, sweeps = [], []

        def float_aberth(*args):
            doubles.append(_float_aberth(*args))
            return doubles[-1]

        fixed_aberth = recorded(sweeps, _fixed_aberth)
        a = integer_coeffs(ExactPolynomial(coeffs))
        with mock.patch("posetzeta.roots._float_aberth", float_aberth), \
                mock.patch("posetzeta.roots._fixed_aberth", fixed_aberth), \
                mock.patch("posetzeta.roots.mp", NoMpmath()):
            roots = _nonzero_roots(a, 256)
        taken = (doubles[0] is None, bool(sweeps)) if doubles else None
        assert taken == route
        assert len(roots) == len(coeffs) - 1
        for z in roots:
            assert type(z) is tuple and list(map(type, z)) == [int] * 3
            assert max(abs(z[0]), abs(z[1])) < 2**320
        if roots:
            found = find_roots(ExactPolynomial(coeffs)).roots
            assert all(type(z) is mp.mpc for z in found)
            assert sorted(map(gaussian_value, map(mpc_gaussian, found))) == \
                sorted(map(gaussian_value, roots))

    @pytest.mark.parametrize(
        "poly",
        [
            ExactPolynomial([Fraction(-1, 3), 7]),
            H_polynomial(6),
            ExactPolynomial(((S + 10**400) * (S + 1) * (S + 2)).coeffs),
            g_k_polynomial(chain(30), 16),
        ],
        ids=["linear", "H6", "polygon", "chain-30-k16"],
    )
    def test_residuals_are_those_of_the_returned_roots(self, poly):
        # Each residual is the backward error bound of its root as
        # returned, read back exactly: nothing is rounded between them.
        # g_16 of the chain with d = 30 has a root past 2^320.
        rs = find_roots(poly)
        a = integer_coeffs(poly)
        with mp.workprec(320):
            for z, r in zip(rs.roots, rs.residuals):
                bound = _backward_error_bound(a, *mpc_gaussian(z), 320)
                assert r == mp.ldexp(*bound)
        if poly.degree == 30:
            assert max(abs(z) for z in rs.roots) > mp.mpf(2) ** 320

    def test_linear(self):
        rs = find_roots(ExactPolynomial([2, -1]))
        assert len(rs.roots) == 1
        assert abs(rs.roots[0] - 2) < mp.mpf(2) ** -200

    def test_h3_quadratic(self):
        # Roots of 2 + 7s + 2s^2 are (-7 +- sqrt(33))/4.
        rs = find_roots(H_polynomial(3), precision_bits=256)
        with mp.workprec(320):
            expected = sorted(
                [(-7 - mp.sqrt(33)) / 4, (-7 + mp.sqrt(33)) / 4]
            )
            for got, want in zip(rs.roots, expected):
                assert abs(got - want) < mp.mpf(2) ** -120
        assert mp.nstr(mp.re(rs.roots[0]), 12) == "-3.18614066163"
        assert mp.nstr(mp.re(rs.roots[1]), 12) == "-0.313859338365"

    def test_conjugate_pair(self):
        rs = find_roots(ExactPolynomial([1, 0, 1]))
        assert len(rs.roots) == 2
        a, b = rs.roots
        assert abs(a - mp.conj(b)) < mp.mpf(2) ** -120
        assert abs(abs(a) - 1) < mp.mpf(2) ** -120

    def test_residuals_bounded(self):
        rs = find_roots(
            g_from_chain_vector(strict_chain_vector(build_Pn(210))),
            precision_bits=128,
        )
        assert all(r <= mp.mpf(2) ** -64 for r in rs.residuals)
        assert rs.precision_bits == 128

    def test_degree_zero(self):
        with pytest.raises(DegreeZero):
            find_roots(ExactPolynomial([5]))
        with pytest.raises(ValueError):
            find_roots(ExactPolynomial([1, 1]), precision_bits=32)

    def test_precision_refinement_consistency(self):
        # Doubling precision moves each root by less than the coarse
        # run's certified accuracy.
        poly = g_k_polynomial(build_Pn(30), 4)
        lo = find_roots(poly, precision_bits=128).roots
        hi = find_roots(poly, precision_bits=256).roots
        with mp.workprec(320):
            for a, b in zip(lo, hi):
                assert abs(a - b) < mp.mpf(2) ** -(128 // 4)

    def test_exact_zero_roots(self):
        rs = find_roots(ExactPolynomial([0, 0, 1, 1]))
        assert rs.roots == (-1, 0, 0)
        assert rs.residuals == (0, 0, 0)

    def test_dominant_root_far_out(self):
        # d = 5 at k = 8: the dominant root is about 6.6e23 while the
        # others stay near the unit circle; an absolute residual stop
        # cannot be met at that size.
        poly = g_k_polynomial(simplex_face_poset(6), 8)
        rs = find_roots(poly)
        assert len(rs.roots) == 5
        assert mp.nstr(max(abs(z) for z in rs.roots), 2) == "6.6e+23"
        assert all(r <= mp.mpf(2) ** -128 for r in rs.residuals)
        assert_backward_errors(poly, rs.roots, 256)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(-(2 ** 80), 2 ** 80), min_size=1, max_size=8),
        st.integers(1, 2 ** 80),
        st.booleans(),
    )
    def test_random_integer_polynomials(self, low, lead, negate):
        poly = ExactPolynomial(low + [-lead if negate else lead])
        rs = find_roots(poly)
        assert len(rs.roots) == poly.degree
        assert all(r <= mp.mpf(2) ** -128 for r in rs.residuals)
        assert_backward_errors(poly, rs.roots, 256)

    def test_conjugate_pairs_put_negative_im_first(self):
        # Sorted by (re, im) alone, 74 of these 397 pairs came out with
        # im > 0 first, their real parts differing by rounding only.
        rng = random.Random(7)
        pairs = 0
        for _ in range(199):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(3, 9))]
            coeffs[0] = coeffs[0] or 1
            rs = find_roots(ExactPolynomial(coeffs + [rng.randint(1, 9)]))
            with mp.workprec(320):
                tol = mp.mpf(2) ** -128
                assert list(rs.roots) == sort_like_find_roots(rs.roots, tol)
                pairs += sum(
                    a.imag < 0 and abs(b - mp.conj(a)) <= tol * abs(a)
                    for a, b in zip(rs.roots, rs.roots[1:])
                )
        assert pairs == 397

    @pytest.mark.parametrize("bits", [64, 256, 1001])
    def test_backward_error_limit_is_exact(self, bits, monkeypatch):
        # A bound q 2^e passes at most 2^-t, t = bits // 2: 2^-t passes
        # and 1.5 2^-t fails, decided on the integers (q, e).
        t = bits // 2
        poly = (S + 1) * (1 + S * S)
        bound = mock.Mock()
        monkeypatch.setattr(roots_module, "_backward_error_bound", bound)
        for q, e in ((1, -t), (2, -t - 1), (1 << t, -2 * t), (0, 0)):
            bound.return_value = q, e
            rs = find_roots(poly, bits)
            assert rs.residuals == (mp.ldexp(q, e),) * 3
        for q, e in ((3, -t - 1), (1, 1 - t), ((1 << t) + 1, -2 * t)):
            bound.return_value = q, e
            with pytest.raises(NoConvergence, match=f"above 2\\^-{t};"):
                find_roots(poly, bits)

    def test_decisions_use_no_mpmath(self, monkeypatch):
        # The error test, the order and the conjugate pairs run on
        # integers; mpmath only builds the returned values.
        used = set()

        class Builders:
            def __getattr__(self, name):
                used.add(name)
                return getattr(mp, name)

        monkeypatch.setattr(roots_module, "mp", Builders())
        for poly in ((S + 1) * (1 + S * S) * S, H_polynomial(6)):
            find_roots(poly)
        assert used == {"workprec", "mpc", "ldexp"}
        # So do the dominant root, its realness, the matching (the
        # Hungarian search on the fan, the sorted pairing on P_30) and both
        # flags of theorem_report: no mpf or mpc is compared or tested for
        # truth, and mpmath only builds the values of the records.
        used.clear()

        def compared(*args):
            raise AssertionError("an mpmath value was compared")

        for cls in (mp.mpf, mp.mpc):
            for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__",
                         "__ne__", "__bool__"):
                monkeypatch.setattr(cls, name, compared)
        for poset, k_max in ((fan(), 4), (build_Pn(30), 3), (chain(1), 2)):
            theorem_report(poset, k_max)
        assert used == {"workprec", "mpc", "ldexp", "mpf", "fprod"}

    @pytest.mark.parametrize(
        "poly",
        [
            ExactPolynomial([0, 0, 1, 1]),
            1 + S * S,
            H_polynomial(6),
            ExactPolynomial(((S + 10**400) * (S + 1) * (S + 2)).coeffs),
            g_k_polynomial(chain(30), 16),
        ],
        ids=["zeros", "pair", "H6", "polygon", "chain-30-k16"],
    )
    def test_exact_form_is_the_returned_roots(self, poly):
        # Root i is exactly gaussians[i] over 2^exponent, in the order of
        # roots, which is ascending in (x, y) but for conjugate pairs.
        rs = find_roots(poly)
        assert len(rs.gaussians) == len(rs.roots)
        for (x, y), z in zip(rs.gaussians, rs.roots):
            assert type(x) is int and type(y) is int
            assert gaussian_value((x, y, rs.exponent)) == \
                gaussian_value(mpc_gaussian(z))
        for (xa, ya), (xb, yb) in zip(rs.gaussians, rs.gaussians[1:]):
            assert (xa, ya) <= (xb, yb) or ya > 0 > yb

    def test_determinism(self):
        poly = g_k_polynomial(build_Pn(30), 3)
        first = find_roots(poly).roots
        second = find_roots(poly).roots
        assert [mp.nstr(z, 30) for z in first] == [
            mp.nstr(z, 30) for z in second
        ]


def match(roots, targets, precision_bits=256):
    """roots._match on the exact pairs of the values, as (matched
    targets, distances), the form of the oracles."""
    rp, tp, _ = gaussian_pairs(roots, targets)
    picks = _match(rp, tp, precision_bits)
    assert sorted(picks) == sorted(set(picks))
    matched = tuple(targets[j] for j in picks)
    return matched, tuple(abs(r - t) for r, t in zip(roots, matched))


class TestPickBeta1:
    def test_independent_of_order_and_noise(self):
        # Each case on the exact integer pairs, against the former mpf
        # decision.
        with mp.workprec(320):
            noise = mp.mpf(2) ** -300
            pair = mp.mpc(3, 4)
            cases = [
                # A conjugate pair whose moduli differ by rounding noise:
                # the member with im > 0.
                ([pair, mp.conj(pair) * (1 + noise), mp.mpc(1, 1)], pair),
                # A numerically real root ties with a complex pair.
                ([mp.mpc(0, -5), mp.mpc(5 - noise, 2 ** -100), mp.mpc(0, 5)],
                 mp.mpc(5, 2 ** -100)),
                # Two real roots of equal modulus, whatever the sign of
                # their imaginary noise: the smaller real part.
                ([mp.mpc(3 + noise, noise), mp.mpc(-3, -noise), mp.mpc(1)],
                 mp.mpc(-3)),
            ]
            for roots, want in cases:
                for perm in permutations(roots):
                    pairs, _ = gaussian_pairs(perm)
                    got = perm[_pick_beta1(pairs, 256)]
                    assert got == pick_beta1_by_mpf(list(perm), 256)
                    assert abs(got - want) < mp.mpf(2) ** -90

    def test_real_test_is_relative_to_modulus(self):
        # |y| <= 2^-(bits/4) |z| on the pairs, at any common power of 2.
        for scale in (0, 40, 400):
            assert _is_real((3 << scale, 0), 256)
            assert _is_real((1 << 64 + scale, 1 << scale), 256)
            assert not _is_real((1 << 63 + scale, 1 << scale), 256)
            assert not _is_real((0, -1 << scale), 256)


class TestMatch:
    def test_matches_permutation_search(self):
        rng = random.Random(20240823)

        def point():
            return complex(rng.uniform(-4, 4), rng.uniform(-4, 4))

        for _ in range(200):
            n = rng.randint(1, 7)
            roots = tuple(point() for _ in range(n))
            targets = tuple(point() for _ in range(rng.randint(n, 7)))
            got = match(roots, targets)
            assert got == match_by_permutations(roots, targets)
            assert got == match_by_mpf_units(roots, targets, 256)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                min_size=2,
                max_size=2,
            )
        )
    )
    def test_sorted_reals_pair_in_order(self, pair):
        # Whole numbers make ties exact, as the oracle needs them; with
        # both sides ascending the Hungarian search is never entered.
        roots, targets = (tuple(complex(x) for x in sorted(v)) for v in pair)
        with mock.patch("posetzeta.roots._assign", side_effect=AssertionError):
            got = match(roots, targets)
        assert got == match_by_permutations(roots, targets)
        assert got == match_by_mpf_units(roots, targets, 256)

    def test_tie_goes_to_earliest_target(self):
        # On one line both assignments of two roots to two targets cost
        # the same; the earlier target goes to the first root.
        with mp.workprec(320):
            roots = (mp.mpf("1.53"), mp.mpf("2.43"))
            targets = (mp.mpf("-3.19"), mp.mpf("-0.31"))
            for ts in (targets, targets[::-1]):
                assert match(roots, ts)[0] == ts
                assert match_by_mpf_units(roots, ts, 256)[0] == ts

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-6, 6), max_size=2),
        st.lists(st.integers(-6, 6), max_size=3),
        st.lists(st.integers(-6, 6), min_size=7, max_size=7),
        st.integers(0, 2),
    )
    def test_ties_match_former_search(self, centres, reals, pool, extra):
        # Whole numbers and conjugate pairs c -+ i make exact ties: a
        # pair's two roots lie at one distance from every real target,
        # and whole-number distances are whole in every unit.  With
        # imaginary part 1 and coordinates within 6, two sums of
        # distances tie only when their irrational terms agree as sets,
        # so the cut to whole units keeps every tie.  The permutation
        # oracle sums in row order, so a tie is exact there only for at
        # most one pair, in the first rows.
        rows = 2 * len(centres) + len(reals)
        assume(rows >= 1)
        with mp.workprec(320):
            roots = tuple(mp.mpc(c, s) for c in centres for s in (-1, 1))
            roots += tuple(mp.mpc(x) for x in reals)
            targets = tuple(mp.mpc(t) for t in pool[:min(rows + extra, 7)])
            if not centres and len(targets) == rows:
                # As many real roots as real targets: each side ascending,
                # in find_roots' order, as `_match` takes them.
                roots, targets = (tuple(sorted(v, key=mp.re))
                                  for v in (roots, targets))
            got = match(roots, targets)
            assert got == match_by_perturbation(roots, targets, 256)
            assert got == match_by_mpf_units(roots, targets, 256)
            if rows <= 6 and len(centres) <= 1:
                assert got == match_by_permutations(roots, targets)

    def test_tied_conjugate_pairs_take_targets_in_order(self):
        # 24 pairs c -+ i, each sqrt(2) from its own targets c -+ 1: 2^24
        # assignments tie at the least total, and the least of them takes
        # the targets in order.  cols^rows = 48^48 is about 2^268, where
        # a perturbation of 2^-128 / cols^rows is below one ulp of 320
        # bits.
        with mp.workprec(320):
            centres = range(-240, 0, 10)
            roots = tuple(mp.mpc(c, s) for c in centres for s in (-1, 1))
            targets = tuple(mp.mpc(c + s) for c in centres for s in (-1, 1))
            matched, dists = match(roots, targets)
            assert matched == targets
            assert set(dists) == {mp.sqrt(2)}
            assert (matched, dists) == match_by_mpf_units(roots, targets, 256)

    def test_every_distance_zero(self):
        # Every unit count is 0, so every assignment ties and the least
        # one wins, on the Hungarian search and on the sorted pairing.
        with mp.workprec(320):
            for z, rows, cols in ((mp.mpc(1, 1), 2, 3), (mp.mpc(0), 3, 3)):
                roots, targets = (z,) * rows, (z,) * cols
                rp, tp, _ = gaussian_pairs(roots, targets)
                assert _match(rp, tp, 256) == tuple(range(rows))
                assert match(roots, targets) == \
                    match_by_mpf_units(roots, targets, 256)

    def test_small_distances_keep_their_bits(self):
        # On Gaussian integers the largest distance, sqrt(5), has 2
        # integer bits of the 128 a unit needs: pairing in order costs
        # 2 sqrt(5), crossed 4, and both cut to 4 whole units when the
        # square root is taken before the shift.
        roots = (0j, 3 + 2j)
        targets = (1 + 2j, 2 + 0j)
        rp, tp, g = gaussian_pairs(roots, targets)
        assert g == 0
        assert _match(rp, tp, 256) == (1, 0)
        assert match(roots, targets) == match_by_mpf_units(roots, targets, 256)
        assert match(roots, targets) == match_by_permutations(roots, targets)


class TestGk:
    def test_p6(self):
        assert g_k_polynomial(p6(), 0) == ExactPolynomial([4, -2])
        # The chain vector is (2^(k+1)+2, 2^(k+1)), so the numerator
        # keeps the constant slope -2 while the root 2^k + 1 escapes.
        for k in range(6):
            gk = g_k_polynomial(p6(), k)
            assert gk == ExactPolynomial([2 ** (k + 1) + 2, -2])

    def test_dimension_zero(self):
        with pytest.raises(DimensionZero):
            g_k_polynomial(build_poset(["a"], []), 1)


class TestTheoremReport:
    def test_p6_exact_trajectory(self):
        # In dimension one the single root is (2^k + 1) exactly and the
        # growth comparison is off by only the additive constant.
        rep = theorem_report(p6(), k_max=10)
        assert rep.d == 1 and rep.chi == 2
        for rec in rep.records:
            assert abs(rec.beta1 - (2 ** rec.k + 1)) < mp.mpf(2) ** -120
            assert rec.other_roots == ()
        assert rep.burn_in_k0 == 0
        # No targets at d = 1: every distance is the mpf 0.
        assert all(type(rec.max_match_distance) is mp.mpf
                   and rec.max_match_distance == 0 for rec in rep.records)
        final = rep.records[-1]
        expected = mp.mpf(2 ** 10 + 1) / 2 ** 10
        assert abs(final.es_ratio - expected) < mp.mpf(2) ** -100
        assert rep.max_match_distance_final == 0

    def test_flags_before_and_after_burn_in(self):
        # g_0 = 3 - 3s + s^2 has non-real roots, so beta1 is real only
        # from k = 2 on, while its modulus increases from the start.
        # At k_max = 0 there is no step, so no increase to speak of.
        chain = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        for k_max in (0, 1):
            rep = theorem_report(chain, k_max)
            assert rep.burn_in_k0 is None
            assert rep.beta1_real_from_k0 is False
            assert rep.modulus_increasing_from_k0 is (k_max == 1)
        rep = theorem_report(chain, 2)
        assert rep.burn_in_k0 == 2
        assert rep.beta1_real_from_k0 is True
        assert rep.modulus_increasing_from_k0 is True

    def test_real_flag_is_relative_to_modulus(self, monkeypatch):
        # beta1 = 10^(k+3) + 0.01i is real relative to its modulus at 53
        # bits (0.01 <= 2^-13 * 10^3), though not within 2^-13 absolutely;
        # the flag must use the same test as the choice of beta1.
        calls = []

        def fake_find_roots(poly, precision_bits):
            k = len(calls)
            calls.append(k)
            return root_set((mp.mpc(10 ** (k + 3), "0.01"),), 53)

        monkeypatch.setattr("posetzeta.roots.find_roots", fake_find_roots)
        chain = build_poset(["a", "b"], [("a", "b")])  # d = 1: no targets
        rep = theorem_report(chain, 3, precision_bits=53)
        assert len(calls) == 4
        assert rep.beta1_real_from_k0 is True

    def test_modulus_flag_false_when_it_never_increases(self, monkeypatch):
        # |beta1| falls at every step (0.1, 0.01, ..., 1e-6), so the
        # modulus increases from no k on; an empty tail must not count.
        def fake_find_roots(poly, precision_bits):
            k = len(calls)
            calls.append(k)
            return root_set((mp.mpc(mp.mpf(10) ** -(k + 1)),), 53)

        calls = []
        monkeypatch.setattr("posetzeta.roots.find_roots", fake_find_roots)
        chain = build_poset(["a", "b"], [("a", "b")])  # d = 1: no targets
        rep = theorem_report(chain, 5, precision_bits=53)
        assert len(calls) == 6
        assert rep.beta1_real_from_k0 is True
        assert rep.modulus_increasing_from_k0 is False
        assert rep.burn_in_k0 is None

    def test_p30(self):
        rep = theorem_report(build_Pn(30), k_max=8)
        assert rep.d == 2 and rep.chi == 4
        assert abs(rep.es_ratio_final - 1) < mp.mpf("0.01")
        assert abs(rep.product_final - (-1)) < mp.mpf("2e-3")
        assert rep.max_match_distance_final < mp.mpf("2e-3")
        for rec in rep.records:
            assert type(rec.max_match_distance) is mp.mpf
            assert rec.max_match_distance == max(rec.matched_distances)
        assert rep.burn_in_k0 is not None
        # Dominant modulus grows without bound.
        mods = [rec.beta1_abs for rec in rep.records[2:]]
        assert all(a < b for a, b in zip(mods, mods[1:]))

    def test_es_ratio_tends_to_sign_of_chi(self):
        # chi(P_95) = -1: es_ratio tends to sign(chi) = -1, not to 1.
        rep = theorem_report(strict_chain_vector(build_Pn(95)), 8)
        assert rep.d == 2 and rep.chi == -1
        assert abs(rep.es_ratio_final + 1) < mp.mpf("0.01")

    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
    def test_simplex_converges(self, n):
        # d = n - 1; the dominant root grows like ((d+1)!)^k.
        rep = theorem_report(simplex_face_poset(n), 8)
        assert rep.d == n - 1
        assert rep.precision_bits == 256
        assert abs(rep.es_ratio_final - 1) < mp.mpf("0.01")

    def test_errors(self):
        with pytest.raises(DimensionZero):
            theorem_report(build_poset(["a", "b"], []), 2)
        # chi = 0: two points under a common top and over a common
        # bottom, minus nothing; a circle has chi 0.
        circle = build_poset(
            ["a", "b", "x", "y"],
            [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")],
        )
        with pytest.raises(ZeroEulerCharacteristic):
            theorem_report(circle, 2)

    def test_negative_k_max(self, monkeypatch):
        def fail(p):
            raise AssertionError("chain vector computed before the k_max check")

        monkeypatch.setattr("posetzeta.roots.chain_vector", fail)
        with pytest.raises(ValueError, match="k_max must be >= 0"):
            theorem_report(build_Pn(30), -1)


class TestRandomPosets:
    def test_paper_statements_at_their_own_rates(self, tmp_path):
        # On random posets of up to 8 elements: dimension 0 and chi = 0 are
        # refused; otherwise, from d = 2 on, beta1 is real and growing from
        # some k0 on, the distances to the roots of H_d and es_ratio -
        # sign(chi) each shrink by the factor d + 1 per step, to within
        # 0.02 at k = 10..13, and the bounded roots' product tends to that
        # of H_d, (-1)^(d-1).  The same posets run through the CLI in CSV
        # and JSON, and the CSV rows are the report's values.
        path, out = tmp_path / "p.json", tmp_path / "out"
        seen = set()

        @settings(derandomize=True, max_examples=500, deadline=None,
                  database=None)
        @given(dags(max_elements=8))
        def check(dag):
            p = build_poset(*dag)
            cv = chain_vector(p)
            d, chi = cv.dim, euler_characteristic(cv)
            if d < 1 or chi == 0:
                with pytest.raises(
                    DimensionZero if d < 1 else ZeroEulerCharacteristic
                ):
                    theorem_report(p, 14, 256)
                return
            if d < 2:
                return
            rep = theorem_report(p, 14, 256)
            assert rep.burn_in_k0 is not None
            assert rep.beta1_real_from_k0 and rep.modulus_increasing_from_k0
            sign = 1 if chi > 0 else -1
            for a, b in zip(rep.records[10:14], rep.records[11:15]):
                dist = b.max_match_distance * (d + 1) / a.max_match_distance
                es = (b.es_ratio - sign) * (d + 1) / (a.es_ratio - sign)
                assert abs(dist - 1) <= 0.02 and abs(es - 1) <= 0.02, a.k
            assert abs(rep.product_final - (-1) ** (d - 1)) <= 1e-3
            assert all(r.max_match_distance == max(r.matched_distances)
                       for r in rep.records)
            save_poset(p, str(path))
            argv = ["theorem-check", "--input", str(path), "--kmax", "14"]
            for fmt in ("json", "csv"):
                assert main(argv + ["--format", fmt, "--output", str(out)]) == 0
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows == [
                [str(r.k), *map(fmt_float, (
                    r.beta1.real, r.beta1.imag, r.beta1_abs, r.es_ratio,
                    r.product_of_others.real, r.product_of_others.imag,
                    r.max_match_distance)), "256"]
                for r in rep.records
            ]
            seen.add((tuple(p.labels), tuple(p.above)))

        check()
        assert len(seen) >= 200
