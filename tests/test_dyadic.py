"""Dyadic against mpmath 1.3, its oracle: every operation the trajectory
report uses, and the printer, on random values with exact ties, carries,
zero, both signs and exponents past mpmath's 3500-bit switch."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp

from posetzeta.dyadic import Dyadic, rounded

DRAWS = 10_000
# Small precisions make ties and carries frequent; 320 is the default
# working precision, 256 + 64.
PRECISIONS = (3, 8, 24, 53, 117, 320)


def mantissa(rng, p):
    """An int of either sign, 0 now and then, with a bit length at the cut
    to p bits or far from it; one in five is all ones below its top bits,
    so that rounding up carries into a new bit."""
    if rng.random() < 0.05:
        return 0
    bits = rng.choice((1, 2, 3, p // 2 + 1, p - 1, p, p + 1, p + 2, 2 * p))
    m = rng.getrandbits(bits) | 1 << bits - 1
    if rng.random() < 0.2:
        m = (1 << bits) - 1 - rng.getrandbits(2) % max(bits - 1, 1)
    return -m if rng.random() < 0.5 else m


def value(rng, p, real=False):
    """A random Dyadic at p bits; one in ten far from 2^0, past the gap at
    which mpmath's addition only perturbs the larger term."""
    spread = 400 if rng.random() < 0.1 else 6
    y = 0 if real else mantissa(rng, p)
    return Dyadic(mantissa(rng, p), y, rng.randint(-spread, spread), p)


def held(rng, p, real=False):
    """A random value of at most p bits a part, as the report holds each
    one.  mpmath's mpc - mpf leaves the imaginary part as it is, so on a
    longer one a difference would differ there, unrounded."""
    v = value(rng, p, real)
    return rounded(v.x, v.y, v.e, p)


def exact(v):
    """The parts of a Dyadic or an int, as Fractions."""
    if isinstance(v, int):
        return Fraction(v), Fraction(0)
    scale = Fraction(2) ** v.e
    return v.x * scale, v.y * scale


def exact_result(name, a, b):
    """The parts of the exact result; none for a complex modulus."""
    if name.startswith("abs"):
        return () if a.y else (abs(exact(a)[0]),)
    (ax, ay), (bx, by) = exact(a), exact(b)
    if name.startswith("sub"):
        return ax - bx, ay - by
    if name.startswith("mul"):
        return ax * bx - ay * by, ax * by + ay * bx
    return (ax / bx,)


def is_tie(fr, p):
    """Whether fr lies halfway between two numbers of p bits."""
    n, d = abs(fr.numerator), fr.denominator
    return bool(n) and d & d - 1 == 0 and n.bit_length() == p + 1 and n & 1


def nonzero_int(rng):
    return rng.choice((1, -1)) * rng.randint(1, 1 << rng.choice((2, 40, 400)))


# name: (operands drawn from rng at p bits, the operation)
OPS = {
    "sub": (lambda r, p: (held(r, p), held(r, p)), lambda a, b: a - b),
    "sub-int": (lambda r, p: (held(r, p), nonzero_int(r)),
                lambda a, b: a - b),
    "mul": (lambda r, p: (value(r, p), value(r, p)), lambda a, b: a * b),
    "mul-real": (lambda r, p: (value(r, p, True), value(r, p)),
                 lambda a, b: a * b),
    "mul-int": (lambda r, p: (value(r, p), nonzero_int(r)),
                lambda a, b: a * b),
    "div": (lambda r, p: (value(r, p, True), value(r, p, True) or 1),
            lambda a, b: a / b),
    "div-int": (lambda r, p: (value(r, p, True), nonzero_int(r)),
                lambda a, b: a / b),
    "abs": (lambda r, p: (value(r, p), None), lambda a, _: abs(a)),
    "abs-real": (lambda r, p: (value(r, p, True), None), lambda a, _: abs(a)),
}


def to_mp(v):
    return v if v is None or isinstance(v, int) else mp.convert(v)


@pytest.mark.parametrize("name", OPS)
def test_operation_matches_mpmath(name):
    # Each result equals mpmath's at working precision p, exactly; the
    # draws meet exact ties of the differences, products and quotients.
    draw, op = OPS[name]
    rng = random.Random(f"dyadic:{name}")
    ties = 0
    for _ in range(DRAWS):
        p = rng.choice(PRECISIONS)
        a, b = draw(rng, p)
        got = op(a, b)
        assert type(got) is Dyadic and got.p == p
        with mp.workprec(p):
            want = op(to_mp(a), to_mp(b))
        assert mp.convert(got) == want, (a, b)
        ties += any(is_tie(x, p) for x in exact_result(name, a, b))
    assert ties or name == "abs"


def test_modulus_halfway():
    # The modulus c of a Pythagorean triple is exact where c^2 fits p + 4
    # bits, and a tie where c is odd with p + 1 bits: 5 = 101b at p = 2,
    # which goes to the even 4.
    assert abs(Dyadic(3, 4, 0, 2)) == 4 and abs(Dyadic(6, -8, 0, 2)) == 8
    for a, b in ((3, 4), (5, 12), (8, 15), (7, 24), (20, 21), (9, 40)):
        for p in range(2, 9):
            for z in (Dyadic(a, b, -3, p), Dyadic(-b, a, 5, p)):
                with mp.workprec(p):
                    assert mp.convert(abs(z)) == abs(mp.convert(z)), (z, p)


def test_product_and_quotient_as_the_report_takes_them():
    # product_of_others is mp.fprod, from the mpf 1 left to right; the
    # growth in es_ratio is mpf(numerator) / mpf(denominator).
    rng = random.Random("dyadic:report")
    for _ in range(DRAWS // 10):
        p = rng.choice(PRECISIONS)
        factors = [value(rng, p) for _ in range(rng.randint(0, 6))]
        got = Dyadic(1, 0, 0, p)
        for z in factors:
            got = got * z
        n, d = rng.getrandbits(rng.choice((3, 400))), rng.randint(1, 10**130)
        quotient = rounded(n, 0, 0, p) / rounded(d, 0, 0, p)
        with mp.workprec(p):
            assert mp.convert(got) == mp.fprod(map(mp.convert, factors))
            assert mp.convert(quotient) == mp.mpf(n) / mp.mpf(d)


def decimal_edges(rng):
    """Values whose digits sit at the printer's edges: 21 significant
    digits ending in 5, an exact halfway case; 10^t -+ 2^-s, a run of 9s
    or of 0s; 10^t cut to s bits; each on both sides of the switch to
    exponent form."""
    kind = rng.randrange(3)
    t = rng.randint(-12, 26)
    if kind == 0:
        # M 10^t / 2^k = M 5^k 10^(t - k), M 5^k of 21 digits, M odd.
        k = rng.randint(1, 28)
        m = rng.randrange(10**20 // 5**k + 1, 10**21 // 5**k) | 1
        return Dyadic(m * 10 ** max(t, 0), 0, -k, 64)
    s = rng.randint(80, 200)
    if kind == 1 and t >= 0:
        return Dyadic((10**t << s) + rng.choice((-1, 1)), 0, -s, 64)
    num = Fraction(10) ** t * 2**s
    return Dyadic(int(num) + rng.choice((0, 1)), 0, -s, 64)


@pytest.mark.parametrize("digits", [20, 6])
def test_printer_matches_mpmath(digits):
    rng = random.Random(f"dyadic:nstr:{digits}")
    forms = set()
    for i in range(DRAWS):
        if i % 4 == 0:
            v = decimal_edges(rng)
        else:
            # Exponents to +-20,000 bits: past +-3500 mpmath takes its
            # digits from a logarithm, and they are exact as here.
            spread = rng.choice((8, 100, 3600, 20000))
            e = rng.randint(-spread, spread)
            v = Dyadic(mantissa(rng, 320), 0, e, 320)
        text = v.nstr(digits)
        assert text == mp.nstr(mp.convert(v), digits, strip_zeros=False), v
        forms.add("e" in text)
    assert forms == {True, False}


def test_zero_and_signs_print():
    assert Dyadic(0, 0, 0, 320).nstr(20) == "0.0"
    assert Dyadic(-3, 0, -1, 320).nstr(20) == "-1.5000000000000000000"
    assert Dyadic(1, 0, 2000, 320).nstr(20) == mp.nstr(
        mp.ldexp(1, 2000), 20, strip_zeros=False)


def test_order_and_equality():
    # Exact, against Fractions, with ints on either side.
    rng = random.Random("dyadic:order")
    for _ in range(DRAWS):
        p = rng.choice(PRECISIONS)
        a, b = value(rng, p, True), value(rng, p, True)
        n = rng.randint(-8, 8)
        (fa, _), (fb, _) = exact(a), exact(b)
        assert (a < b, a <= b, a > b, a >= b, a == b) == \
            (fa < fb, fa <= fb, fa > fb, fa >= fb, fa == fb)
        assert (a < n, n < a, a == n, bool(a)) == (fa < n, n < fa, fa == n,
                                                   bool(fa))
    z = Dyadic(3, 4, -2, 53)
    assert z == Dyadic(6, 8, -3, 53) and z != Dyadic(3, -4, -2, 53)
    assert (z.real, z.imag) == (Dyadic(3, 0, -2, 53), 1)
    with pytest.raises(TypeError):
        z < 1


def test_other_operands_go_to_mpmath():
    # A float or an mpf is not taken; mpmath converts the Dyadic exactly
    # through _mpmath_, in either order, at its own working precision.
    v = Dyadic((1 << 300) + 1, 0, -300, 320)
    assert v.__lt__(0.5) is NotImplemented
    assert v.__sub__(mp.mpf(1)) is NotImplemented
    assert mp.convert(v)._mpf_ == from_man_exp((1 << 300) + 1, -300)
    with mp.workprec(53):
        assert v * mp.mpf(1) == 1 == mp.mpf(1) * v
        assert v - mp.mpf(1) == mp.ldexp(1, -300) == -(mp.mpf(1) - v)
        assert v > mp.mpf(1) and mp.mpf(1) < v
    with mp.workprec(301):
        assert v * mp.mpf(1) == v
    z = Dyadic(3, -4, 0, 320)
    assert mp.convert(z) == mp.mpc(3, -4) and abs(z) == 5
    with pytest.raises(TypeError):
        v < 0.5
