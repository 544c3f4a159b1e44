"""Rational form of the chain-counting zeta series of a poset.

The series with i-th coefficient equal to the number of weak chains of
length i is g(s) / (1-s)^(d+1), where d is the dimension and the
numerator g(s) = sum_i N_i s^i (1-s)^(d-i) is built from the strict
chain vector (N_0, ..., N_d) alone, so it takes a poset or its
ChainVector.  The denominator is read off binomials, (1-s)^(d+1) =
sum_j (-1)^j C(d+1, j) s^j.  The quotient is already reduced, because
g(1) = N_d > 0.
"""

from math import comb

from .polynomial import ExactPolynomial, ExactRationalFunction
from .poset import chain_vector


def zeta_rational(p):
    """Weak-chain series of a poset or its ChainVector, reduced as built."""
    cv = chain_vector(p)
    n = cv.dim + 1
    return ExactRationalFunction(
        g_from_chain_vector(cv),
        ExactPolynomial((-1) ** j * comb(n, j) for j in range(n + 1)),
    )


def g_from_chain_vector(cv):
    """Integer h-transform of the chain vector.

    The reversed numerator s^d g(1/s) = sum_i N_i (s-1)^(d-i) is the
    chain polynomial sum_i N_i s^(d-i) taken at s - 1, one Taylor shift.
    """
    shifted = ExactPolynomial(reversed(cv.counts)).shifted(-1)
    return ExactPolynomial(reversed(shifted.coeffs))
