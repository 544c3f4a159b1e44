from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings

from posetzeta import (
    EmptyPoset,
    ExactPolynomial,
    build_poset,
    build_Pn,
    dimension,
    euler_characteristic,
    g_k_polynomial,
    residue_at_infinity,
    series_expand,
    simplex_face_poset,
    spectral_constants,
    strict_chain_vector,
    theorem_report,
    weak_chain_count,
    zeta_rational,
)
from posetzeta.zeta import g_from_chain_vector
from helpers import (
    Poly,
    adjacency_matrix,
    chain_vectors,
    determinant_zeta,
    g_by_powers,
    random_posets,
)


def point():
    return build_poset(["p"], [])


def chain2():
    return build_poset(["x", "y"], [("x", "y")])


def p6():
    return build_poset(["2", "3", "5", "6"], [("2", "6"), ("3", "6")])


def test_adjacency_matrix():
    assert adjacency_matrix(point()).entries == ((1,),)
    assert adjacency_matrix(chain2()).entries == ((1, 1), (0, 1))
    a = adjacency_matrix(p6())
    assert [sum(row) for row in a.entries] == [2, 2, 1, 1]


def test_zeta_rational_examples():
    z = zeta_rational(point())
    assert z.numerator == ExactPolynomial([1])
    assert z.denominator == ExactPolynomial([1, -1])
    z = zeta_rational(chain2())
    assert z.numerator == ExactPolynomial([2, -1])
    assert z.denominator == ExactPolynomial([1, -2, 1])
    z = zeta_rational(p6())
    assert z.denominator == Poly([1, -1]) ** 2
    assert sum(z.numerator.coeffs) == 2

    with pytest.raises(EmptyPoset):
        zeta_rational(build_poset([], []))


def test_series_examples():
    assert series_expand(zeta_rational(p6()), 2) == [4, 6, 8]


def g_of(p):
    return g_from_chain_vector(strict_chain_vector(p))


def test_g_polynomial_examples():
    assert g_of(chain2()) == ExactPolynomial([2, -1])
    assert g_of(p6()) == ExactPolynomial([4, -2])
    antichain = build_poset(["a", "b", "c"], [])
    assert g_of(antichain) == ExactPolynomial([3])
    # The crown a, b < c, d is a circle: chi = 0, so g drops to degree 0.
    crown = build_poset(
        ["a", "b", "c", "d"],
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
    )
    assert g_of(crown) == ExactPolynomial([4])


def test_residue_examples():
    assert residue_at_infinity(zeta_rational(point())) == 1
    assert residue_at_infinity(zeta_rational(chain2())) == 1
    assert residue_at_infinity(zeta_rational(build_Pn(30))) == 4


def _suite():
    posets = [point(), chain2(), p6(), simplex_face_poset(3), build_Pn(15)]
    posets += random_posets(20, seed=11, max_elements=6)
    return posets


def test_zeta_consistency_suite():
    one_minus_s = Poly([1, -1])
    for p in _suite():
        z = zeta_rational(p)
        d = dimension(p)
        g = g_of(p)
        # The chain-vector route agrees with the adjacency determinants,
        # whose quotient need not be reduced: compare cross-products.
        det = determinant_zeta(p)
        assert det.denominator * z.numerator == det.numerator * z.denominator
        # Reduced denominator is (1-s)^(d+1) and numerator is g.
        assert z.denominator == one_minus_s ** (d + 1)
        assert z.numerator == g
        # Series coefficients reproduce the weak chain counts.
        coeffs = series_expand(z, 12)
        assert coeffs == [
            Fr(weak_chain_count(p, i)) for i in range(13)
        ]
        # Residue at infinity recovers the Euler characteristic.
        assert residue_at_infinity(z) == euler_characteristic(p)
        # Value at 1 is the top chain count, so 1 is never a zero of g
        # and g / (1-s)^(d+1) is reduced.
        cv = strict_chain_vector(p)
        assert sum(g.coeffs) == cv[cv.dim]
        assert sum(g.coeffs) != 0


def _all_int(values):
    return all(type(v) is int for v in values)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(chain_vectors(max_dim=40))
def test_h_transform_matches_power_oracle(cv):
    g = g_from_chain_vector(cv)
    assert g == g_by_powers(cv)
    assert _all_int(g.coeffs)
    # The denominator read off binomials is the power (1 - s)^(d+1).
    den = zeta_rational(cv).denominator
    assert den == Poly([1, -1]) ** (cv.dim + 1)
    assert _all_int(den.coeffs)


def test_entry_points_take_a_chain_vector():
    # Everything past the chain vector reads it alone, so a poset and its
    # ChainVector give equal results at every entry point.
    for p in _suite() + random_posets(20):
        cv = strict_chain_vector(p)
        assert zeta_rational(cv) == zeta_rational(p)
        assert euler_characteristic(cv) == euler_characteristic(p)
        if cv.dim < 1:
            continue
        for k in range(4):
            assert g_k_polynomial(cv, k) == g_k_polynomial(p, k)
        assert spectral_constants(cv) == spectral_constants(p)
        if euler_characteristic(cv):
            assert theorem_report(cv, 3) == theorem_report(p, 3)


def test_integer_coefficients():
    for p in _suite():
        z = zeta_rational(p)
        assert _all_int(z.numerator.coeffs + z.denominator.coeffs)
        if dimension(p) >= 1:
            for k in range(4):
                assert _all_int(g_k_polynomial(p, k).coeffs)
