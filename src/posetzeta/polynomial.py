"""Dense exact polynomials and their quotients.

A polynomial is a tuple of coefficients, kept as given (int or
fractions.Fraction), lowest degree first; the zero polynomial has
degree -1.  It offers one operation, the Taylor shift p(s + c): the
closed forms of the package need no ring arithmetic.  A rational
function holds its two parts as given, without reduction.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivergentAtInfinity, PoleAtOrigin


class ExactPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other):
        if isinstance(other, ExactPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def shifted(self, c):
        """p(s + c), by repeated synthetic division by s - c."""
        a = list(self.coeffs)
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += c * a[j + 1]
        return ExactPolynomial(a)

    def __repr__(self):
        return f"ExactPolynomial({[str(c) for c in self.coeffs]})"


@dataclass(frozen=True)
class ExactRationalFunction:
    """Quotient of two exact polynomials, held exactly as given.

    No common factor is cancelled and no scalar is moved between the
    parts, so equality and hashing compare the parts as written.  The
    zeta series needs no reduction: its closed form is already reduced.
    """

    numerator: ExactPolynomial
    denominator: ExactPolynomial

    def __post_init__(self):
        for name in ("numerator", "denominator"):
            part = getattr(self, name)
            if not isinstance(part, ExactPolynomial):
                object.__setattr__(self, name, ExactPolynomial(part))
        if not self.denominator:
            raise ZeroDivisionError("zero denominator")


def series_expand(f, K):
    """First K+1 Taylor coefficients of f at 0, by linear recurrence."""
    b = f.denominator
    if b[0] == 0:
        raise PoleAtOrigin("denominator vanishes at the origin")
    a = f.numerator
    out = []
    for i in range(K + 1):
        c = Fraction(a[i])
        for j in range(1, min(i, b.degree) + 1):
            c -= b[j] * out[i - j]
        out.append(c / b[0])
    return out


def residue_at_infinity(f):
    """-[coefficient of 1/s] in the Laurent expansion of f at infinity.

    With f = q + r/den and deg r < m = deg den, only r/den reaches 1/s,
    and its coefficient there is r[m-1] / lead(den).
    """
    den = f.denominator.coeffs
    m = len(den) - 1
    if f.numerator.degree > m + 1:
        raise DivergentAtInfinity(
            "numerator degree exceeds denominator degree + 1"
        )
    if m == 0:
        return Fraction(0)
    # The remainder r of the numerator modulo den, in place; the m zeros
    # of padding keep r[m-1] in range when the numerator is shorter.
    r = list(f.numerator.coeffs) + [0] * m
    for k in range(f.numerator.degree, m - 1, -1):
        q = Fraction(r[k], den[m])
        for j, b in enumerate(den):
            r[k - m + j] -= q * b
    return Fraction(-r[m - 1], den[m])
