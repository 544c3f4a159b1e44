"""Rational form of the chain-counting zeta series of a poset.

The series with i-th coefficient equal to the number of weak chains of
length i is g(s) / (1-s)^(d+1), where d is the dimension and the
numerator g(s) = sum_i N_i s^i (1-s)^(d-i) is built from the strict
chain vector (N_0, ..., N_d).  The quotient is already reduced, because
g(1) = N_d > 0.
"""

from math import comb

from .polynomial import ExactPolynomial, ExactRationalFunction
from .poset import strict_chain_vector


def zeta_rational(p):
    """Reduced rational form of the weak-chain generating series."""
    cv = strict_chain_vector(p)
    return ExactRationalFunction(
        g_from_chain_vector(cv),
        ExactPolynomial([1, -1]) ** (cv.dim + 1),
    )


def g_polynomial(p):
    """Numerator polynomial sharing its zeros with the chain series.

    Built directly from the strict chain vector as
    sum_i N_i s^i (1-s)^(d-i); integer coefficients, degree <= d.
    """
    cv = strict_chain_vector(p)
    return g_from_chain_vector(cv)


def g_from_chain_vector(cv):
    """Integer h-transform: h_j = sum_{i<=j} (-1)^(j-i) C(d-i, j-i) N_i."""
    d = cv.dim
    return ExactPolynomial(
        sum(
            (-1) ** (j - i) * comb(d - i, j - i) * n
            for i, n in enumerate(cv.counts[: j + 1])
        )
        for j in range(d + 1)
    )
