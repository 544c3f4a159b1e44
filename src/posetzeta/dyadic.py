"""Gaussian dyadics (x + iy) 2^e, the values of the trajectory report.

Each carries the precision p that its arithmetic rounds to, and rounds
as mpmath 1.3 does at working precision p, so that the report prints the
digits it printed in mpmath: a difference, product or quotient once per
part, to nearest with ties to even; a modulus as mpf_hypot, x^2 + y^2
cut at p + 4 bits and its square root to nearest.  mpmath converts a
value exactly through `_mpmath_`, the one place that imports it.
"""

from functools import total_ordering
from math import isqrt, log

_LOG2_10 = log(10, 2)  # as mpmath's to_digits_exp takes it


def _round(m, e, p):
    """m 2^e rounded to p bits, to nearest with ties to even, as (m, e)."""
    cut = m.bit_length() - p
    if cut <= 0:
        return m, e
    a = abs(m)
    a = (a + (1 << cut - 1) - 1 + (a >> cut & 1)) >> cut
    return (a if m > 0 else -a), e + cut


def rounded(x, y, e, p):
    """(x + iy) 2^e with each part rounded to p bits."""
    x, ex = _round(x, e, p)
    if not y:
        return Dyadic(x, 0, ex, p)
    y, ey = _round(y, e, p)
    ex, ey = (ex if x else ey), (ey if y else ex)
    f = min(ex, ey)
    return Dyadic(x << ex - f, y << ey - f, f, p)


@total_ordering
class Dyadic:
    """(x + iy) 2^e at precision p; one value has many sets of fields.
    Only real values are ordered and divided."""

    __slots__ = ("x", "y", "e", "p")

    def __init__(self, x, y, e, p):
        self.x, self.y, self.e, self.p = x, y, e, p

    def __repr__(self):
        return f"Dyadic({self.x}, {self.y}, {self.e}, {self.p})"

    real = property(lambda self: Dyadic(self.x, 0, self.e, self.p))
    imag = property(lambda self: Dyadic(self.y, 0, self.e, self.p))

    def __bool__(self):
        return bool(self.x or self.y)

    def _aligned(self, other):
        # Both over the lower power of 2, as (x, y, u, v, f, p), p the larger
        # precision; an int exactly, and None for a type left to mpmath.
        if type(other) is not Dyadic:
            if not isinstance(other, int):
                return None
            other = Dyadic(other, 0, 0, self.p)
        f = min(self.e, other.e)
        a, b = self.e - f, other.e - f
        return (self.x << a, self.y << a, other.x << b, other.y << b, f,
                max(self.p, other.p))

    def __eq__(self, other):
        both = self._aligned(other)
        return NotImplemented if both is None else both[:2] == both[2:4]

    def __lt__(self, other):
        both = self._aligned(other)
        if both is not None and (both[1] or both[3]):
            raise TypeError("complex values have no order")
        return NotImplemented if both is None else both[0] < both[2]

    def __sub__(self, other):
        if (both := self._aligned(other)) is None:
            return NotImplemented
        x, y, u, v, f, p = both
        return rounded(x - u, y - v, f, p)

    def __mul__(self, other):
        if (both := self._aligned(other)) is None:
            return NotImplemented
        x, y, u, v, f, p = both
        return rounded(x * u - y * v, x * v + y * u, 2 * f, p)

    def __truediv__(self, other):
        # The quotient to p + 2 bits or more, and a last bit 1 for a
        # remainder, so that one rounding is correct and a tie exact.
        if (both := self._aligned(other)) is None:
            return NotImplemented
        m, y, n, v, _, p = both
        if y or v:
            raise TypeError("only real values divide")
        k = max(p + 2 - abs(m).bit_length() + abs(n).bit_length(), 0)
        q, r = divmod(abs(m) << k, abs(n))
        q, k = (2 * q + 1, k + 1) if r else (q, k)
        return rounded(q if (m < 0) == (n < 0) else -q, 0, -k, p)

    def __abs__(self):
        x, y, e, p = abs(self.x), abs(self.y), self.e, self.p
        if not (x and y):
            return rounded(x or y, 0, e, p)
        # x^2 + y^2 cut to p + 4 bits, as s 2^(2f); then its root as in
        # division, to p + 2 bits or more with a last bit 1 if inexact.
        s = x * x + y * y
        cut = max(s.bit_length() - p - 4, 0)
        s, f = s >> cut << (cut & 1), e + cut // 2
        k = max(p + 2 - s.bit_length() // 2, 0)
        s <<= 2 * k
        r, f = isqrt(s), f - k
        r, f = (2 * r + 1, f - 1) if r * r != s else (r, f)
        return rounded(r, 0, f, p)

    def _mpmath_(self, prec, rounding):
        # The exact mpf, or mpc when y != 0, at any precision: mpmath
        # rounds on its next operation, as with its own values.
        from mpmath import mp
        from mpmath.libmp import from_man_exp

        re, im = (from_man_exp(v, self.e) for v in (self.x, self.y))
        return mp.make_mpc((re, im)) if self.y else mp.make_mpf(re)

    def nstr(self, n):
        """The real part to n significant digits, as mpmath's nstr(v, n,
        strip_zeros=False) prints it (libmpf.to_str)."""
        m, e = abs(self.x), self.e
        if not m:
            return "0.0"
        top = e + m.bit_length()  # 2^(top - 1) <= |v| < 2^top
        p = int((n + 3) * _LOG2_10) + 10 - top
        if p > 0 and top >= -3500:
            # mpmath's digits: the value cut to p binary places, then to
            # d decimal ones.
            d = int(p / _LOG2_10 + 0.5)
            fixed = m << e + p if e + p >= 0 else m >> -e - p
            digits = str(fixed * 10**d >> p)
            point = len(digits) - d - 1
        else:
            # The exact digits, n + 2 or more, as mpmath's where it is
            # exact; past 2^+-3500 it cuts the value to 86 bits first.
            k = int((top - 1) * 0.30103) - n - 2
            digits = str((m << max(e, 0)) * 10 ** max(-k, 0)
                         // ((1 << max(-e, 0)) * 10 ** max(k, 0)))
            point = k + len(digits) - 1
        # Cut to n digits, half up, and the point placed, as to_str does.
        digits = str(int(digits[:n]) + (digits[n:n + 1] >= "5"))
        if len(digits) > n:
            digits, point = digits[:n], point + 1
        split = 1
        if min(-(n // 3), -5) < point < n:
            digits, split, point = "0" * -point + digits, max(point, 0) + 1, 0
        text = f"{'-' if self.x < 0 else ''}{digits[:split]}.{digits[split:]}"
        return f"{text}e{point:+d}" if point else text
