import random
from fractions import Fraction
from itertools import permutations
from math import isfinite, lcm
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FIXED_SEED,
    Poly,
    match_by_permutations,
    mp_newton_polygon_starts,
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
    find_roots,
    g_k_polynomial,
    simplex_face_poset,
    strict_chain_vector,
    theorem_report,
)
from posetzeta import roots as roots_module
from posetzeta.roots import (
    RootSet,
    _aberth,
    _certified_real_roots,
    _float_aberth,
    _match,
    _newton_in_bracket,
    _newton_polygon_starts,
    _pick_beta1,
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


def integer_coeffs(poly):
    den = lcm(*(Fraction(c).denominator for c in poly.coeffs))
    return [int(c * den) for c in poly.coeffs]


def product(factors):
    poly = Poly([1])
    for f in factors:
        poly = poly * Poly(f)
    return poly


S = Poly([0, 1])


class TestCertifiedRoots:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(-6, 6)),
            min_size=2,
            max_size=7,
            unique_by=lambda f: Fraction(-f[1], f[0]),
        )
    )
    def test_distinct_linear_factors(self, factors):
        # The roots -b/a of the factors a s + b lie in [-6, 6], at least
        # 1/30 apart, so cells of 1/120 isolate every one of them.
        poly = product([(b, a) for a, b in factors])
        rs = find_roots(poly)
        assert all(mp.im(z) == 0 for z in rs.roots)
        assert sign_scan_root_count(poly.coeffs, -7, 7, 1680) == poly.degree
        assert_agree(rs.roots, aberth_oracle(poly), 128)

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
        kinds = []

        def aberth(coeffs, *rest):
            kinds.append(type(coeffs[0]))
            return _aberth(coeffs, *rest)

        with mock.patch("posetzeta.roots._aberth", aberth):
            rs = find_roots(poly)
        assert mp.mpf in kinds  # the full-precision route ran
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
        kinds = []

        def aberth(coeffs, *rest):
            kinds.append(type(coeffs[0]))
            return _aberth(coeffs, *rest)

        monkeypatch.setattr(roots_module, "_aberth", aberth)
        for poly in (H_polynomial(6), g_k_polynomial(build_Pn(30), 2)):
            kinds.clear()
            rs = find_roots(poly)
            assert mp.mpf in kinds
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
        assert [dyadic(z) for z in roots] == want
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

    def test_determinism(self):
        poly = g_k_polynomial(build_Pn(30), 3)
        first = find_roots(poly).roots
        second = find_roots(poly).roots
        assert [mp.nstr(z, 30) for z in first] == [
            mp.nstr(z, 30) for z in second
        ]


class TestPickBeta1:
    def test_independent_of_order_and_noise(self):
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
                    got = _pick_beta1(list(perm), 256)
                    assert abs(got - want) < mp.mpf(2) ** -90


class TestMatch:
    def test_matches_permutation_search(self):
        rng = random.Random(20240823)

        def point():
            return complex(rng.uniform(-4, 4), rng.uniform(-4, 4))

        for _ in range(200):
            n = rng.randint(1, 7)
            roots = tuple(point() for _ in range(n))
            targets = tuple(point() for _ in range(rng.randint(n, 7)))
            assert _match(roots, targets, 256) == match_by_permutations(
                roots, targets
            )

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
            got = _match(roots, targets, 256)
        assert got == match_by_permutations(roots, targets)

    def test_tie_goes_to_earliest_target(self):
        # On one line both assignments of two roots to two targets cost
        # the same; the earlier target goes to the first root.
        with mp.workprec(320):
            roots = (mp.mpf("1.53"), mp.mpf("2.43"))
            targets = (mp.mpf("-3.19"), mp.mpf("-0.31"))
            assert _match(roots, targets, 256)[0] == targets
            assert _match(roots, targets[::-1], 256)[0] == targets[::-1]


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
            return RootSet((mp.mpc(10 ** (k + 3), "0.01"),), (0,), 53)

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
            return RootSet((mp.mpc(mp.mpf(10) ** -(k + 1)),), (0,), 53)

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
