"""Squarefree divisibility posets and their number-theoretic statistics.

One sieve over byte slices records the Mobius function, its Mertens
prefix sums and the squarefree integers grouped by their number of
prime factors.  The Euler characteristic is chi(P_n) = 1 - M(n),
pi_weight is a bisection into one weight's list, and the top-chain
counts and alpha records are derived from those.
"""

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress

from .errors import ChiZero, DimensionZero, RangeTooLarge
from .poset import Poset
from .subdivision import H_vector

DEFAULT_SIEVE_CAP = 10_000_000
DEFAULT_POSET_CAP = 5_000
# Band for d / (log n / log log n) in dim_asymptotic_report.
DIM_RATIO_BAND = (0.3, 3.0)


# Sieve code of an integer with a square factor; a squarefree k is coded
# by its number of prime factors.
_NOT_SQUAREFREE = 255
# Maps a sieve code to mu as a signed byte (255 reads as -1).
_MU_OF_CODE = bytes((1, 255)[w % 2] for w in range(255)) + b"\0"
# Adds one to a sieve code, keeping _NOT_SQUAREFREE fixed.
_PLUS_ONE = bytes(range(1, 256)) + bytes([_NOT_SQUAREFREE])


class SquarefreeTable:
    """Sieve results up to n, kept in typed arrays.  The sieve itself is
    slice operations over bytes, with no Python step per integer; filling
    ``by_weight`` takes one step per squarefree integer, which was timed
    faster than one ``compress`` per weight over translated codes.

    ``mu[k]`` is the Mobius function, ``mertens[k]`` its prefix sum
    M(k), and ``by_weight[w]`` lists the squarefree k <= n with exactly w
    prime factors in ascending order (``by_weight[0]`` holds only 1).
    """

    __slots__ = ("n", "mu", "mertens", "by_weight")

    def __init__(self, n):
        self.n = n
        # Eratosthenes over slices, marking the multiples of each square
        # p^2 on the way; then each prime adds one to the code of its
        # multiples, which leaves a squarefree k coded by its weight.
        is_prime = bytearray([1]) * (n + 1)
        is_prime[:2] = b"\0\0"
        code = bytearray(n + 1)
        code[0] = _NOT_SQUAREFREE
        for p in compress(range(math.isqrt(n) + 1), is_prime):
            is_prime[p * p::p] = bytes(n // p - p + 1)
            code[p * p::p * p] = bytes([_NOT_SQUAREFREE]) * (n // (p * p))
        for p in compress(range(n + 1), is_prime):
            code[p::p] = code[p::p].translate(_PLUS_ONE)
        self.mu = array("b", code.translate(_MU_OF_CODE))
        self.mertens = array("i", accumulate(self.mu))
        top = max(set(code) - {_NOT_SQUAREFREE})
        self.by_weight = tuple(array("i") for _ in range(top + 1))
        for k in compress(range(n + 1), self.mu):
            self.by_weight[code[k]].append(k)


_table_cache = [None]


def squarefree_sieve(n):
    """Sieve table for 2..n; cached monotonically across calls."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > DEFAULT_SIEVE_CAP:
        raise RangeTooLarge(
            f"n={n} exceeds the sieve cap {DEFAULT_SIEVE_CAP}"
        )
    cached = _table_cache[0]
    if cached is None or cached.n < n:
        # Grow geometrically so sweeps over increasing n stay linear.
        target = max(n, 1000)
        if cached is not None:
            target = max(target, 2 * cached.n)
        cached = SquarefreeTable(min(target, DEFAULT_SIEVE_CAP))
        _table_cache[0] = cached
    return cached


def mertens(n):
    """Partial sum of the Mobius function."""
    if n < 1:
        return 0
    return squarefree_sieve(max(n, 2)).mertens[n]


def build_Pn(n):
    """Divisibility poset of squarefree integers in [2, n].

    The squarefree multiples of an element, in ascending order, are the
    elements above it, so they are its closed row as they come.
    """
    if n > DEFAULT_POSET_CAP:
        raise RangeTooLarge(
            f"n={n} exceeds the explicit-poset cap {DEFAULT_POSET_CAP}"
        )
    mu = squarefree_sieve(n).mu
    elements = [k for k in range(2, n + 1) if mu[k]]
    index = {k: i for i, k in enumerate(elements)}
    rows = ([index[m] for m in range(2 * a, n + 1, a) if mu[m]]
            for a in elements)
    return Poset(map(str, elements), rows)


def chi_Pn(n):
    """Euler characteristic of the divisibility poset: 1 - M(n).

    By Philip Hall's theorem on the divisors of k, the chains of P_n with
    top element k contribute -mu(k) in all, so chi(P_n) = mu(1) - M(n).
    """
    return 1 - squarefree_sieve(n).mertens[n]


def dim_Pn(n):
    """Largest d with the (d+1)-st primorial at most n.

    After the primes p_1..p_k, with product q, the next prime is the least
    integer above p_k that is coprime to q: every integer between p_k and
    the next prime has all its prime factors among p_1..p_k.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    d = -1
    q = 1
    p = 2
    while q * p <= n:
        q *= p
        d += 1
        p += 1
        while math.gcd(p, q) != 1:
            p += 1
    return d


def top_chain_count(n):
    """Number of maximal-length divisibility chains in [2, n].

    With d = dim_Pn(n), no squarefree k <= n has more than d + 1 prime
    factors (the (d + 2)-nd primorial exceeds n), and a chain of length
    d gains at least one prime per step.  So it gains exactly one: it
    starts at a prime, ends at a k with d + 1 prime factors, and is one
    of the (d + 1)! orders in which those primes can be added, which
    gives (d + 1)! * pi_weight(d + 1, n).
    """
    d = dim_Pn(n)
    return math.factorial(d + 1) * pi_weight(d + 1, n)


@dataclass(frozen=True)
class AlphaRecord:
    """Statistics of P_n; ``alpha`` = H1 * top_chains / chi, or None
    where it is undefined: dimension d = 0 (n < 6) or chi = 0."""

    n: int
    d: int
    chi: int
    top_chains: int
    H1: Fraction
    alpha: object  # Fraction, or None when d == 0 or chi == 0

    def require_alpha(self):
        if self.d == 0:
            raise DimensionZero(f"P_{self.n} has dimension 0, alpha undefined")
        if self.chi == 0:
            raise ChiZero(f"chi(P_{self.n}) = 0, alpha undefined")
        return self.alpha


def alpha_record(n):
    """Growth record of the dominant root for the poset of [2, n], n >= 2."""
    d = dim_Pn(n)
    chi = chi_Pn(n)
    top = top_chain_count(n)
    h1 = H_vector(d)[1]
    alpha = Fraction(h1 * top, chi) if d and chi else None
    return AlphaRecord(n=n, d=d, chi=chi, top_chains=top, H1=h1, alpha=alpha)


def pi_weight(d, x):
    """Count of squarefree integers of exactly d prime factors up to x."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if x < 2:
        return 0
    by_weight = squarefree_sieve(x).by_weight
    return bisect_right(by_weight[d], x) if d < len(by_weight) else 0


@dataclass(frozen=True)
class DimReportRow:
    n: int
    d: int
    estimate: float
    ratio: float
    in_band: bool


def dim_asymptotic_report(n_list):
    """Dimension against its log n / log log n first-order estimate.

    The estimate's error constant is not quantified, so only membership
    in DIM_RATIO_BAND is reported.
    """
    rows = []
    for n in n_list:
        if n < 16:
            raise ValueError("need n >= 16 so log log n > 1")
        d = dim_Pn(n)
        est = math.log(n) / math.log(math.log(n))
        ratio = d / est
        rows.append(
            DimReportRow(
                n=n,
                d=d,
                estimate=est,
                ratio=ratio,
                in_band=DIM_RATIO_BAND[0] <= ratio <= DIM_RATIO_BAND[1],
            )
        )
    return rows
