"""Dense exact polynomials and their quotients.

Coefficients are kept as given (int or fractions.Fraction); division
yields Fraction, never float.  Coefficient lists are stored lowest
degree first and the zero polynomial has degree -1.  A rational
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

    @property
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    @property
    def leading(self):
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, ExactPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == ExactPolynomial([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactPolynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return ExactPolynomial(
            [self[k] + other[k] for k in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return ExactPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactPolynomial([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactPolynomial([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return ExactPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ExactPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = ExactPolynomial([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shifted(self, c):
        """p(s + c), by repeated synthetic division by s - c."""
        a = list(self.coeffs)
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += c * a[j + 1]
        return ExactPolynomial(a)

    def divmod(self, other):
        """Exact polynomial division over the rationals."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k] == 0:
                continue
            f = Fraction(rem[k], lead)
            q[k - d] = f
            for j, b in enumerate(other.coeffs):
                rem[k - d + j] -= f * b
        return ExactPolynomial(q), ExactPolynomial(rem)

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
        if self.denominator.is_zero:
            raise ZeroDivisionError("zero denominator")

    def __call__(self, x):
        return Fraction(self.numerator(x)) / self.denominator(x)


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
    m = f.denominator.degree
    if f.numerator.degree > m + 1:
        raise DivergentAtInfinity(
            "numerator degree exceeds denominator degree + 1"
        )
    r = f.numerator.divmod(f.denominator)[1]
    return Fraction(-r[m - 1], f.denominator.leading)
