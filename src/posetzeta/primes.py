"""Squarefree divisibility posets and their number-theoretic statistics.

One sieve writes a code byte for each integer up to n: its number of
prime factors if it is squarefree, 255 if not.  Next to the codes the
table keeps, every _BLOCK integers, how many codes of each weight came
before and the Mertens sum M so far.  A count up to x, pi_weight(w, x)
or M(x), is one of those prefix values plus one count over the bytes of
at most one block, and chi(P_n) = 1 - M(n).  The rows of a window of n,
chi(P_n) or the integer alpha rows, are running sums over its codes.
"""

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, islice, repeat
from operator import sub

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
# Integers per block of prefix counts: a query counts at most this many
# code bytes.
_BLOCK = 512
# Cells per slice of the Eratosthenes strides and per integer addition
# of the primes above isqrt(n): each piece is held a few times over as
# bytes and ints, so this bounds the memory beside the two tables.
_PIECE = 1 << 20


def _strides(start, n, step):
    # The slices of start, start + step, ... up to n, each of at most
    # _PIECE cells, with their numbers of cells.
    for a in range(start, n + 1, step * _PIECE):
        k = min(_PIECE, (n - a) // step + 1)
        yield slice(a, a + k * step, step), k


class SquarefreeTable:
    """Sieve codes of 0..n and their prefix counts per block.

    ``code[k]`` is the number of prime factors of a squarefree k (0 for
    k = 1) and _NOT_SQUAREFREE for any other k, 0 included.  The primes
    p <= r = isqrt(n) are found by Eratosthenes over strided slices of
    at most _PIECE cells; each marks the multiples of p^2 and adds one to
    the codes of its multiples by a translate.  A prime p > r divides
    each of its multiples t * p once, with t <= n // (r + 1) <= r, so
    t's code is final by then and t * p is coded code[t] + 1 if t is
    squarefree.  Per such t, the prime flags of (r, n // t] are added to
    the codes of t * (r, n // t], each piece of at most _PIECE cells as
    one little-endian integer.  No byte carries: a byte gains 1 only at
    a prime, where it holds code[t], a weight below 8, and 0 elsewhere.  No Python step runs per integer or
    per prime above r.

    Each _BLOCK integers the table keeps how many codes of each weight
    came before, and M: ``count(w, x)`` and ``mertens(x)`` take the value
    kept at the start of the block that holds x + 1 and count the code
    bytes from there to x.
    """

    __slots__ = ("n", "code", "_counts", "_mertens")

    def __init__(self, n):
        self.n = n
        r = math.isqrt(n)
        is_prime = bytearray([1]) * (n + 1)
        is_prime[:2] = b"\0\0"
        code = bytearray(n + 1)
        code[0] = _NOT_SQUAREFREE
        for p in compress(range(r + 1), is_prime):
            for cells, k in _strides(p * p, n, p):
                is_prime[cells] = bytes(k)
            for cells, k in _strides(p * p, n, p * p):
                code[cells] = bytes([_NOT_SQUAREFREE]) * k
            for cells, _ in _strides(p, n, p):
                code[cells] = code[cells].translate(_PLUS_ONE)
        lo = r + 1
        t_max = n // lo
        # The squarefree cofactors t <= t_max, read before any of their
        # multiples t * p > r is written.
        for t in compress(range(1, t_max + 1),
                          code[1:t_max + 1].translate(_MU_OF_CODE)):
            for cells, k in _strides(t * lo, n, t):
                a = cells.start // t
                total = (int.from_bytes(code[cells], "little")
                         + int.from_bytes(is_prime[a:a + k], "little"))
                code[cells] = total.to_bytes(k, "little")
        self.code = code
        # Weights run from 0 (k = 1) without a gap up to the largest.
        weights = 1
        while weights in code:
            weights += 1
        blocks = (n + 1) // _BLOCK
        starts = range(0, blocks * _BLOCK, _BLOCK)
        per_block = [
            list(map(code.count, repeat(w, blocks), starts,
                     range(_BLOCK, (blocks + 1) * _BLOCK, _BLOCK)))
            for w in range(weights)
        ]
        self._counts = [array("l", accumulate(c, initial=0))
                        for c in per_block]
        mu_per_block = map(sub, map(sum, zip(*per_block[0::2])),
                           map(sum, zip(*per_block[1::2])))
        self._mertens = array("l", accumulate(mu_per_block, initial=0))

    def count(self, w, x):
        """Number of k <= x (x <= n) whose code is the weight w."""
        if w >= len(self._counts):
            return 0
        j = (x + 1) // _BLOCK
        return self._counts[w][j] + self.code.count(w, j * _BLOCK, x + 1)

    def mertens(self, x):
        """M(x), the sum of mu(k) over 1 <= k <= x (x <= n)."""
        j = (x + 1) // _BLOCK
        mu = self.code[j * _BLOCK:x + 1].translate(_MU_OF_CODE)
        return self._mertens[j] + mu.count(1) - mu.count(255)


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
    return squarefree_sieve(max(n, 2)).mertens(n)


def build_Pn(n):
    """Divisibility poset of squarefree integers in [2, n].

    The elements below an element are its squarefree divisors above 1,
    already closed: each element goes into the row of each of its
    squarefree proper multiples.
    """
    if n > DEFAULT_POSET_CAP:
        raise RangeTooLarge(
            f"n={n} exceeds the explicit-poset cap {DEFAULT_POSET_CAP}"
        )
    code = squarefree_sieve(n).code
    elements = [k for k in range(2, n + 1) if code[k] != _NOT_SQUAREFREE]
    index = {k: i for i, k in enumerate(elements)}
    rows = [[] for _ in elements]
    for i, a in enumerate(elements):
        for m in range(2 * a, n + 1, a):
            if code[m] != _NOT_SQUAREFREE:
                rows[index[m]].append(i)
    return Poset(map(str, elements), rows)


def chi_Pn(n):
    """Euler characteristic of the divisibility poset: 1 - M(n).

    By Philip Hall's theorem on the divisors of k, the chains of P_n with
    top element k contribute -mu(k) in all, so chi(P_n) = mu(1) - M(n).
    """
    return 1 - squarefree_sieve(n).mertens(n)


def _primorials():
    """The primorials 2, 6, 30, 210, ...

    After the primes p_1..p_k, with product q, the next prime is the least
    integer above p_k that is coprime to q: every integer between p_k and
    the next prime has all its prime factors among p_1..p_k.
    """
    q = 1
    p = 2
    while True:
        q *= p
        yield q
        p += 1
        while math.gcd(p, q) != 1:
            p += 1


def dim_Pn(n):
    """Largest d with the (d+1)-st primorial at most n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    d = -1
    for q in _primorials():
        if q > n:
            return d
        d += 1


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


def chi_values(lo, hi):
    """chi(P_n) for n = lo..hi, 2 <= lo <= hi, as a running sum.

    The sieve is checked (and built) before the first value is read.
    """
    table = squarefree_sieve(hi)
    mu = memoryview(table.code[lo:hi + 1].translate(_MU_OF_CODE)).cast("b")
    chis = accumulate(mu, sub, initial=1 - table.mertens(lo - 1))
    return islice(chis, 1, None)


def alpha_rows(lo, hi):
    """Integer rows (n, chi, d, top_chains) of P_n, n = lo..hi, lo >= 2.

    The sieve and lo are checked before the first row.  Each row updates
    chi and the count of weight d + 1 by the code byte of n, and d moves
    up only at a primorial, the first integer of its weight.  No k <= n
    has more than d + 1 prime factors, so a longest chain adds one prime
    per step: top_chains is (d + 1)! times the count of weight d + 1.
    """
    return _alpha_window(squarefree_sieve(hi), lo, hi, dim_Pn(lo))


def _alpha_window(table, lo, hi, d):
    primorials = islice(_primorials(), d + 1, None)
    bound = next(primorials)  # the first n of dimension d + 1
    count = table.count(d + 1, lo - 1)
    orders = math.factorial(d + 1)
    codes = table.code[lo:hi + 1]
    for n, c, chi in zip(range(lo, hi + 1), codes, chi_values(lo, hi)):
        if n == bound:
            # n is the least integer with d + 2 prime factors.
            d += 1
            bound = next(primorials)
            count = 0
            orders *= d + 1
        if c == d + 1:
            count += 1
        yield n, chi, d, orders * count


def alpha_records(lo, hi):
    """Growth records of the dominant root for P_n, n = lo..hi, lo >= 2:
    the rows of alpha_rows with their Fraction fields, the API's view of
    the window that `pn alpha` prints from its integers."""
    return (AlphaRecord(n, d, chi, top, h1 := H_vector(d)[1],
                        Fraction(h1 * top, chi) if d and chi else None)
            for n, chi, d, top in alpha_rows(lo, hi))


def alpha_record(n):
    """Growth record of the dominant root for the poset of [2, n], n >= 2."""
    return next(alpha_records(n, n))


def pi_weight(d, x):
    """Count of squarefree integers of exactly d prime factors up to x."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if x < 2:
        return 0
    # A weight the table does not hold, _NOT_SQUAREFREE among them,
    # counts 0.
    return squarefree_sieve(x).count(d, x)


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
