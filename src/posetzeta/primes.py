"""Squarefree divisibility posets and their number-theoretic statistics.

A linear sieve supplies smallest prime factors and the Mobius function;
everything else (Mertens partial sums, the Euler characteristic,
maximal-chain counts, the alpha records) is derived from it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ChiZero, RangeTooLarge
from .poset import build_poset
from .subdivision import H_vector

DEFAULT_SIEVE_CAP = 10_000_000
DEFAULT_POSET_CAP = 5_000
# Band for d / (log n / log log n) in dim_asymptotic_report.
DIM_RATIO_BAND = (0.3, 3.0)


class SquarefreeTable:
    """Sieve results up to n: smallest prime factors, mu, prefix sums."""

    __slots__ = ("n", "spf", "mu", "_mertens", "_chi")

    def __init__(self, n):
        self.n = n
        spf = [0] * (n + 1)
        mu = [0] * (n + 1)
        if n >= 1:
            mu[1] = 1
        primes = []
        for i in range(2, n + 1):
            if spf[i] == 0:
                spf[i] = i
                mu[i] = -1
                primes.append(i)
            for p in primes:
                if p > spf[i] or i * p > n:
                    break
                spf[i * p] = p
                mu[i * p] = 0 if p == spf[i] else -mu[i]
        self.spf = spf
        self.mu = mu
        # Prefix sums: _mertens[k] = sum of mu up to k; _chi[k] = the
        # inclusion-exclusion Euler characteristic over squarefree 2..k.
        mert = [0] * (n + 1)
        chi = [0] * (n + 1)
        acc_m = 0
        acc_c = 0
        for k in range(1, n + 1):
            acc_m += mu[k]
            if k >= 2 and mu[k] != 0:
                acc_c -= mu[k]  # (-1)^(omega-1) = -mu for squarefree k
            mert[k] = acc_m
            chi[k] = acc_c
        self._mertens = mert
        self._chi = chi

    def is_squarefree(self, k):
        return 2 <= k <= self.n and self.mu[k] != 0

    def mobius(self, k):
        return self.mu[k]

    def factors(self, k):
        """Distinct prime factors, ascending."""
        out = []
        while k > 1:
            p = self.spf[k]
            out.append(p)
            while k % p == 0:
                k //= p
        return tuple(out)

    def omega(self, k):
        return len(self.factors(k))

    def squarefree(self, limit=None):
        """Squarefree integers 2..limit (default: the sieve bound)."""
        hi = self.n if limit is None else min(limit, self.n)
        return [k for k in range(2, hi + 1) if self.mu[k] != 0]


_table_cache = [None]


def squarefree_sieve(n, cap=DEFAULT_SIEVE_CAP):
    """Sieve table for 2..n; cached monotonically across calls."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > cap:
        raise RangeTooLarge(f"n={n} exceeds the sieve cap {cap}")
    cached = _table_cache[0]
    if cached is None or cached.n < n:
        # Grow geometrically so sweeps over increasing n stay linear.
        target = max(n, 1000)
        if cached is not None:
            target = max(target, 2 * cached.n)
        cached = SquarefreeTable(min(max(target, n), max(cap, n)))
        _table_cache[0] = cached
    return cached


def mertens(n):
    """Partial sum of the Mobius function."""
    if n < 1:
        return 0
    return squarefree_sieve(max(n, 2))._mertens[n]


def build_Pn(n):
    """Divisibility poset of squarefree integers in [2, n]."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > DEFAULT_POSET_CAP:
        raise RangeTooLarge(
            f"n={n} exceeds the explicit-poset cap {DEFAULT_POSET_CAP}"
        )
    table = squarefree_sieve(n)
    elements = table.squarefree(n)
    labels = [str(k) for k in elements]
    relations = []
    for k in elements:
        facs = table.factors(k)
        if len(facs) == 1:
            continue
        for r in range(1, len(facs)):
            for sub in combinations(facs, r):
                div = math.prod(sub)
                relations.append((str(div), str(k)))
    return build_poset(labels, relations)


def chi_Pn(n):
    """Euler characteristic of the divisibility poset, from the sieve."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return squarefree_sieve(n)._chi[n]


def dim_Pn(n):
    """Largest d with the (d+1)-st primorial at most n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    d = -1
    q = 1
    p = 2
    while True:
        nxt = q * p
        if nxt > n:
            break
        q = nxt
        d += 1
        p = _next_prime(p)
    return d


def _next_prime(p):
    q = p + 1
    while any(q % r == 0 for r in range(2, int(q ** 0.5) + 1)):
        q += 1
    return q


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
    n: int
    d: int
    chi: int
    top_chains: int
    H1: Fraction
    alpha: object  # Fraction, or None when chi == 0

    def require_alpha(self):
        if self.alpha is None:
            raise ChiZero(f"chi(P_{self.n}) = 0, alpha undefined")
        return self.alpha


def alpha_record(n):
    """Exact growth constant of the dominant root for the poset of [2, n]."""
    if n < 6:
        raise ValueError("n must be >= 6 so the dimension is >= 1")
    d = dim_Pn(n)
    chi = chi_Pn(n)
    top = top_chain_count(n)
    h1 = H_vector(d)[1]
    alpha = Fraction(h1 * top, chi) if chi != 0 else None
    return AlphaRecord(n=n, d=d, chi=chi, top_chains=top, H1=h1, alpha=alpha)


def pi_weight(d, x):
    """Count of squarefree integers of exactly d prime factors up to x."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if x < 2:
        return 0
    table = squarefree_sieve(x)
    return sum(
        1 for k in range(2, x + 1)
        if table.mu[k] != 0 and table.omega(k) == d
    )


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
