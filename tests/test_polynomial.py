from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetzeta import (
    DivergentAtInfinity,
    ExactPolynomial,
    ExactRationalFunction,
    PoleAtOrigin,
    residue_at_infinity,
    series_expand,
)
from helpers import Poly, residue_by_series, shift_by_composition


def test_degree():
    assert ExactPolynomial([1, 2]).degree == 1
    assert ExactPolynomial([5]).degree == 0
    # Trailing zeros are dropped, so the zero polynomial has degree -1.
    assert ExactPolynomial([1, 0, 0]).degree == 0
    assert ExactPolynomial([0]).degree == -1
    assert ExactPolynomial().degree == -1


def test_equality_and_hash():
    # A polynomial never equals a scalar, so equal objects hash equal.
    assert ExactPolynomial([3]) != 3
    assert ExactPolynomial([]) != 0
    assert len({ExactPolynomial([3]), 3}) == 2
    p, q = ExactPolynomial([1, Fr(1, 2)]), ExactPolynomial([1, Fr(1, 2), 0])
    assert p == q and hash(p) == hash(q)
    assert Poly([1, 2]) == ExactPolynomial([1, 2])
    assert hash(Poly([1, 2])) == hash(ExactPolynomial([1, 2]))


def test_ring_oracle():
    # The test-side ring arithmetic the oracles run on, on known values.
    p, s = Poly([1, 2]), Poly([0, 1])
    assert (p * s).coeffs == (0, 1, 2)
    assert (p + s).coeffs == (1, 3)
    assert not p - p
    assert (1 - s) ** 3 == Poly([1, -3, 3, -1])
    assert (1 + s * s)(2) == 5


def test_divmod():
    a = Poly([-1, 0, 1])  # s^2 - 1
    q, r = divmod(a, Poly([1, 1]))
    assert q.coeffs == (-1, 1)
    assert not r
    # Over the rationals: s^2 - 1 = (2s + 1)(s/2 - 1/4) - 3/4.
    q, r = divmod(a, Poly([1, 2]))
    assert q.coeffs == (Fr(-1, 4), Fr(1, 2))
    assert r.coeffs == (Fr(-3, 4),)
    assert all(type(v) is Fr for v in q.coeffs + r.coeffs)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.just(0), st.integers(-2**64, 2**64)),
        min_size=1,
        max_size=26,
    ),
    st.sampled_from([-3, -1, 1, 2]),
)
@example([1, 0, 1], -1)  # 1 + (s-1)^2 = 2 - 2s + s^2
@example([0, 0], 2)
def test_shift_matches_composition(coeffs, c):
    p = ExactPolynomial(coeffs)
    shifted = p.shifted(c)
    assert shifted == shift_by_composition(p, c)
    assert all(type(v) is int for v in shifted.coeffs)


def test_rational_reduction():
    # (s^2 - 1)/(s - 1) keeps its common factor s - 1: no reduction.
    f = ExactRationalFunction([-1, 0, 1], [-1, 1])
    assert f.numerator.coeffs == (-1, 0, 1)
    assert f.denominator.coeffs == (-1, 1)
    assert f != ExactRationalFunction([1, 1], [1])
    # A common scalar and a negative denominator are kept as well.
    h = ExactRationalFunction([2], [0, -4])
    assert h.numerator.coeffs == (2,) and h.denominator.coeffs == (0, -4)
    g = ExactRationalFunction([Fr(1, 2), Fr(1, 3)], [Fr(1, 5), 1])
    assert g.numerator.coeffs == (Fr(1, 2), Fr(1, 3))
    assert g.denominator.coeffs == (Fr(1, 5), 1)
    # Equality and hashing compare the parts; plain sequences are coerced.
    same = ExactRationalFunction(
        ExactPolynomial(g.numerator.coeffs), list(g.denominator.coeffs)
    )
    assert g == same and hash(g) == hash(same)
    with pytest.raises(ZeroDivisionError):
        ExactRationalFunction([1], [0])


def test_series_expand():
    geo = ExactRationalFunction([1], [1, -1])
    assert series_expand(geo, 3) == [1, 1, 1, 1]
    f = ExactRationalFunction([2, -1], [1, -2, 1])
    assert series_expand(f, 4) == [2, 3, 4, 5, 6]
    with pytest.raises(PoleAtOrigin):
        series_expand(ExactRationalFunction([1], [0, 1]), 2)


def test_residue_at_infinity():
    assert residue_at_infinity(ExactRationalFunction([1], [1, -1])) == 1
    assert (
        residue_at_infinity(ExactRationalFunction([2, -1], [1, -2, 1])) == 1
    )
    # Numerator degree = denominator degree + 1 is still finite.
    # s^2/(1+s) = s - 1 + 1/(1+s), whose 1/s coefficient is 1.
    assert residue_at_infinity(ExactRationalFunction([0, 0, 1], [1, 1])) == -1
    with pytest.raises(DivergentAtInfinity):
        residue_at_infinity(ExactRationalFunction([0, 0, 0, 1], [1, 1]))


@st.composite
def rational_functions(draw):
    coeff = st.one_of(st.integers(-9, 9), st.fractions(max_denominator=9))
    den = draw(st.lists(coeff, min_size=1, max_size=5).filter(any))
    num = draw(st.lists(coeff, max_size=len(den) + 2))
    return ExactRationalFunction(num, den)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rational_functions())
@example(ExactRationalFunction([3, 2], [5]))  # constant denominator
@example(ExactRationalFunction([1, 2, 3], [5]))  # divergent
@example(ExactRationalFunction([1, 0, 2, 7], [1, 0, 1]))  # deg + 1
@example(ExactRationalFunction([1], [1, 0, 1]))  # remainder index past num
@example(ExactRationalFunction([0], [1, 1]))
@example(ExactRationalFunction([0, 1], [0, 1]))  # s/s, common factor
@example(ExactRationalFunction([-1, 0, 1], [-1, 1]))  # (s^2-1)/(s-1)
def test_residue_matches_series(f):
    try:
        expected = residue_by_series(f)
    except DivergentAtInfinity:
        with pytest.raises(DivergentAtInfinity):
            residue_at_infinity(f)
        return
    got = residue_at_infinity(f)
    assert got == expected and type(got) is Fr
