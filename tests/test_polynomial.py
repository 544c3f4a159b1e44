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
from helpers import residue_by_series, shift_by_composition


def test_arithmetic():
    p = ExactPolynomial([1, 2])
    q = ExactPolynomial([0, 1])
    assert (p * q).coeffs == (Fr(0), Fr(1), Fr(2))
    assert (p + q).coeffs == (Fr(1), Fr(3))
    assert (p - p).is_zero
    assert p.degree == 1
    assert ExactPolynomial([0]).degree == -1
    assert (ExactPolynomial([1, -1]) ** 3).coeffs == (
        Fr(1), Fr(-3), Fr(3), Fr(-1),
    )


def test_eval_and_shift():
    p = ExactPolynomial([1, 0, 1])  # 1 + s^2
    assert p(2) == 5


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


def _exact(values):
    # 0.5 == Fr(1, 2), so equality alone would let a float through.
    return all(type(v) in (int, Fr) for v in values)


def test_divmod():
    a = ExactPolynomial([-1, 0, 1])  # s^2 - 1
    b = ExactPolynomial([1, 1])
    q, r = a.divmod(b)
    assert q.coeffs == (Fr(-1), Fr(1))
    assert r.is_zero
    # Over the rationals: s^2 - 1 = (2s + 1)(s/2 - 1/4) - 3/4.
    q, r = a.divmod(ExactPolynomial([1, 2]))
    assert q.coeffs == (Fr(-1, 4), Fr(1, 2))
    assert r.coeffs == (Fr(-3, 4),)
    assert _exact(q.coeffs + r.coeffs)


def test_rational_reduction():
    # (s^2 - 1)/(s - 1) keeps its common factor s - 1: no reduction.
    f = ExactRationalFunction([-1, 0, 1], [-1, 1])
    assert f.numerator.coeffs == (-1, 0, 1)
    assert f.denominator.coeffs == (-1, 1)
    assert f(2) == 3 and _exact([f(2)])
    assert f != ExactRationalFunction([1, 1], [1])
    # A common scalar and a negative denominator are kept as well.
    h = ExactRationalFunction([2], [0, -4])
    assert h.numerator.coeffs == (2,) and h.denominator.coeffs == (0, -4)
    assert h(3) == Fr(-1, 6) and _exact([h(3)])
    g = ExactRationalFunction([Fr(1, 2), Fr(1, 3)], [Fr(1, 5), 1])
    assert g.numerator.coeffs == (Fr(1, 2), Fr(1, 3))
    assert g.denominator.coeffs == (Fr(1, 5), 1)
    assert g(2) == Fr(Fr(1, 2) + Fr(2, 3), Fr(1, 5) + 2)
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
