import functools
import tracemalloc
from fractions import Fraction as Fr
from itertools import accumulate, combinations
from math import factorial, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetzeta import (
    ChiZero,
    DimensionZero,
    RangeTooLarge,
    SquarefreeTable,
    ZeroEulerCharacteristic,
    alpha_record,
    alpha_rows,
    build_poset,
    build_Pn,
    chi_Pn,
    dim_Pn,
    dim_asymptotic_report,
    dimension,
    euler_characteristic,
    mertens,
    pi_weight,
    squarefree_sieve,
    strict_chain_vector,
)
from helpers import (
    FIXED_SEED,
    alpha_record_per_n,
    linear_sieve_codes,
    top_chain_count,
)
from posetzeta import primes
from posetzeta.primes import _BLOCK, DEFAULT_SIEVE_CAP
from reference_tables import ALPHA_N, CHI_PN


def brute_prime_factors(k):
    out = []
    p = 2
    while p * p <= k:
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        out.append(k)
    return tuple(out)


def brute_squarefree(n):
    out = []
    for k in range(2, n + 1):
        if all(k % (p * p) != 0 for p in brute_prime_factors(k)):
            out.append(k)
    return out


def brute_mobius(k):
    facs = brute_prime_factors(k)
    if any(k % (p * p) == 0 for p in facs):
        return 0
    return (-1) ** len(facs)


def prefix_sums_from_codes(codes):
    """M(x) and, per weight w, the count of codes w up to x, for every x,
    read off sieve codes one integer at a time."""
    mu = [0 if c == 255 else (-1) ** c for c in codes]
    weights = max(set(codes) - {255}) + 1
    counts = [list(accumulate(int(c == w) for c in codes))
              for w in range(weights)]
    return list(accumulate(mu)), counts


def check_queries(t, codes, xs):
    # The table's mertens(x) and count(w, x), for every weight the oracle
    # holds and one past it, and the module's mertens(x) and pi_weight(w, x)
    # (on the cached table), against the oracle's prefix sums.
    m_prefix, counts = prefix_sums_from_codes(codes)
    for x in xs:
        assert t.mertens(x) == mertens(x) == m_prefix[x], x
        for w, count in enumerate(counts):
            assert t.count(w, x) == count[x], (w, x)
            if w:
                assert pi_weight(w, x) == (count[x] if x >= 2 else 0)
        assert t.count(len(counts), x) == 0, x


@functools.cache
def brute_weights(limit):
    """Number of prime factors of each squarefree k in [2, limit]."""
    return {k: len(brute_prime_factors(k)) for k in brute_squarefree(limit)}


class TestSieve:
    def test_small_sets(self):
        t = SquarefreeTable(10)
        assert t.code == bytes([255, 0, 1, 1, 255, 1, 2, 1, 255, 255, 2])
        assert [t.mertens(x) for x in range(11)] == [
            0, 1, 0, -1, -1, -2, -1, -2, -2, -2, -1
        ]
        assert [t.count(w, 10) for w in range(4)] == [1, 4, 2, 0]

    def test_against_brute_force(self):
        n = 500
        t = SquarefreeTable(n)
        assert t.n == n
        weights = brute_weights(n)
        assert list(t.code) == [255, 0] + [
            weights.get(k, 255) for k in range(2, n + 1)
        ]
        for x in range(n + 1):
            assert t.mertens(x) == sum(brute_mobius(k)
                                       for k in range(1, x + 1)), x

    def test_against_linear_sieve(self):
        # The code of k does not depend on n >= k, so the codes of every
        # n <= 3000 are prefixes of the oracle's at 3000.  Each table is
        # queried at its own n, and the one at 3000 at every x.
        codes = linear_sieve_codes(3000)
        m_prefix, counts = prefix_sums_from_codes(codes)
        for n in range(1, 3001):
            t = SquarefreeTable(n)
            assert t.code == codes[:n + 1], n
            assert t.mertens(n) == m_prefix[n], n
            assert [t.count(w, n) for w in range(len(counts))] == [
                count[n] for count in counts
            ], n
        check_queries(t, codes, range(3001))

    @pytest.mark.parametrize(
        "n", [10**5, 10**6, 1009**2 - 1, 1009**2, 1009**2 + 1, 2**20 + 2**11]
    )
    def test_against_linear_sieve_large(self, n):
        # 1009 is prime: below 1009^2 it is one of the primes above isqrt(n),
        # filled in by cofactor slices, and from 1009^2 on one sieved below.
        # At 2^20 + 2^11 the slice of the cofactor 1 spans two pieces.
        codes = linear_sieve_codes(n)
        t = SquarefreeTable(n)
        assert t.code == codes
        if n == 10**5:
            # Each block boundary, one before it and one after it.
            edges = range(_BLOCK, n + 2, _BLOCK)
            xs = sorted({x for b in edges for x in (b - 2, b - 1, b)
                         if x <= n} | {0, 1, n})
            check_queries(t, codes, xs)

    def test_build_peak_memory(self):
        # The codes are the one array, 1 byte per integer; the primes
        # above isqrt(n) are added piece by piece, so the build holds
        # less than 2.5 at its peak (over 3.3 with a second byte array
        # of prime flags).  At the sieve cap the pieces are a smaller
        # share, which keeps it below 1.75 (over 2.5 with the flags).
        for n, per_integer in ((4_000_000, 2.5), (DEFAULT_SIEVE_CAP, 1.75)):
            tracemalloc.start()
            try:
                SquarefreeTable(n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < per_integer * n, n

    def test_published_values_at_the_cap(self):
        # M(10^7), pi(10^7), and the squarefree integers up to 10^7.
        x = DEFAULT_SIEVE_CAP
        assert mertens(x) == 1037
        assert pi_weight(1, x) == 664579
        assert 1 + sum(pi_weight(w, x) for w in range(1, 9)) == 6079291

    @pytest.mark.parametrize("piece", [1, 7, 64])
    def test_pieces_of_any_size(self, monkeypatch, piece):
        # With pieces this small every Eratosthenes stride and every
        # cofactor slice crosses piece boundaries.
        n = 10**4 + 7
        monkeypatch.setattr(primes, "_PIECE", piece)
        assert SquarefreeTable(n).code == linear_sieve_codes(n)

    def test_omega_and_weight(self):
        # The cached table may reach past 30; counts are read up to 30.
        t = squarefree_sieve(30)
        assert t.n >= 30
        assert (t.code[30], t.code[7], t.code[12]) == (3, 1, 255)
        assert [t.count(w, 30) for w in range(5)] == [1, 10, 7, 1, 0]
        assert t.count(255, 30) == 0

    def test_cap(self):
        # chi_Pn checks n only through the sieve, so it raises the same.
        for f in (squarefree_sieve, chi_Pn):
            with pytest.raises(RangeTooLarge):
                f(DEFAULT_SIEVE_CAP + 1)
            for n in (1, 0):
                with pytest.raises(ValueError, match="n must be >= 2"):
                    f(n)


class TestMertens:
    def test_values(self):
        assert mertens(0) == mertens(-3) == 0  # the empty sum
        assert mertens(1) == 1
        assert mertens(2) == 0
        assert mertens(3) == -1
        assert mertens(5) == -2
        assert mertens(10) == -1

    def test_brute_force(self):
        acc = 0
        for n in range(1, 300):
            acc += brute_mobius(n)
            assert mertens(n) == acc


class TestChi:
    def test_reference_table(self):
        for n, expected in CHI_PN.items():
            assert chi_Pn(n) == expected, n

    def test_routes_agree(self):
        import random

        rng = random.Random(FIXED_SEED)
        sample = rng.sample(range(2, 501), 25)
        for n in sample:
            assert chi_Pn(n) == euler_characteristic(build_Pn(n)), n

    def test_mertens_identity(self):
        for n in range(2, 2000):
            assert chi_Pn(n) == 1 - mertens(n)


class TestDim:
    def test_primorial_brackets(self):
        assert dim_Pn(2) == 0
        assert dim_Pn(5) == 0
        assert dim_Pn(6) == 1
        assert dim_Pn(16) == 1
        assert dim_Pn(29) == 1
        assert dim_Pn(30) == 2
        assert dim_Pn(209) == 2
        assert dim_Pn(210) == 3
        assert dim_Pn(2310) == 4
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
        q = 1
        for k, p in enumerate(primes, start=1):
            q *= p  # the k-th primorial
            if q > 2:
                assert dim_Pn(q - 1) == k - 2, k
            assert dim_Pn(q) == dim_Pn(q + 1) == k - 1, k

    def test_matches_poset_dimension(self):
        for n in (6, 10, 29, 30, 100, 210, 500):
            assert dim_Pn(n) == dimension(build_Pn(n)), n

    def test_report_band(self):
        rows = dim_asymptotic_report([30, 210, 2310, 30030, 510510])
        assert [r.d for r in rows] == [2, 3, 4, 5, 6]
        assert all(r.in_band for r in rows)
        with pytest.raises(ValueError):
            dim_asymptotic_report([10])


class TestPiWeight:
    def test_values_at_30(self):
        assert pi_weight(1, 30) == 10
        assert pi_weight(2, 30) == 7
        assert pi_weight(3, 30) == 1

    def test_brute_force(self):
        for x in (30, 100, 300):
            for d in range(1, 5):
                expected = sum(
                    1
                    for k in brute_squarefree(x)
                    if len(brute_prime_factors(k)) == d
                )
                assert pi_weight(d, x) == expected, (d, x)

    def test_partition_of_squarefree(self):
        x = 1000
        total = sum(pi_weight(d, x) for d in range(1, 11))
        assert total == len(brute_squarefree(x))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(-5, 3000))
    def test_random_against_brute_count(self, d, x):
        weights = brute_weights(3000)
        expected = sum(1 for k, w in weights.items() if k <= x and w == d)
        assert pi_weight(d, x) == expected

    def test_edge_cases(self):
        assert pi_weight(1, 1) == 0
        with pytest.raises(ValueError):
            pi_weight(0, 30)

    def test_weights_the_table_does_not_hold(self):
        # 255 is the code of the integers that are not squarefree, and a
        # byte count of 256 or more would raise: both count nothing.
        for x in (30, 1000, 10**5):
            assert pi_weight(255, x) == 0, x
            assert squarefree_sieve(x).code[:x + 1].count(255) > 0
            for d in (9, 254, 256, 1000, 10**30):
                assert pi_weight(d, x) == 0, (d, x)


class TestTopChains:
    def test_values(self):
        assert top_chain_count(6) == 2
        assert top_chain_count(30) == 6
        assert top_chain_count(210) == 24

    def test_matches_chain_vector(self):
        # Both sides of the primorial boundaries 6, 30, 210 and 2310,
        # from d = 0 (n < 6) up to d = 4, and the poset cap 5000.
        for n in [*range(2, 401), 2309, 2310, 4999, 5000]:
            cv = strict_chain_vector(build_Pn(n))
            assert top_chain_count(n) == cv[cv.dim], n
            assert chi_Pn(n) == euler_characteristic(cv), n

    def test_factorial_bound(self):
        # Every maximal chain ends at an element of full weight, and a
        # top element admits at most (d+1)! orderings below it.
        for n in (30, 100, 210, 500, 2000):
            d = dim_Pn(n)
            assert top_chain_count(n) <= factorial(d + 1) * pi_weight(
                d + 1, n
            ), n

    def test_poset_cap(self):
        with pytest.raises(RangeTooLarge):
            build_Pn(6000)
        with pytest.raises(ValueError, match="n must be >= 2"):
            build_Pn(1)


class TestAlpha:
    @pytest.mark.parametrize(
        "lo, hi", [(2, 3000), (29990, 30040), (510500, 510520)]
    )
    def test_window_matches_per_n_records(self, lo, hi):
        # 2:3000 crosses the primorials 6, 30, 210 and 2310, 29990:30040
        # crosses 30030 and 510500:510520 crosses 510510.
        want = [alpha_record_per_n(n) for n in range(lo, hi + 1)]
        assert list(alpha_rows(lo, hi)) == [
            (r.n, r.chi, r.d, r.top_chains) for r in want]
        assert list(map(alpha_record, range(lo, hi + 1))) == want

    def test_window_past_a_cold_cache(self, monkeypatch):
        monkeypatch.setattr(primes, "_table_cache", [None])
        assert squarefree_sieve(2).n == 1000
        got = list(alpha_rows(1500, 2400))
        assert squarefree_sieve(2).n >= 2400
        assert got == [(r.n, r.chi, r.d, r.top_chains)
                       for r in map(alpha_record_per_n, range(1500, 2401))]

    def test_window_checks_before_the_first_record(self):
        # alpha_record(n) reads the window n:n, with the same checks.
        for call in (lambda: alpha_rows(2, DEFAULT_SIEVE_CAP + 1),
                     lambda: alpha_record(DEFAULT_SIEVE_CAP + 1)):
            with pytest.raises(RangeTooLarge):
                call()
        for call in (lambda: alpha_rows(1, 10), lambda: alpha_record(1)):
            with pytest.raises(ValueError, match="n must be >= 2"):
                call()

    def test_rows_are_the_records_integers(self):
        rows = list(alpha_rows(2, 3000))
        assert rows == [(r.n, r.chi, r.d, r.top_chains)
                        for r in map(alpha_record, range(2, 3001))]
        assert all(type(x) is int for row in rows for x in row)

    def test_reference_tables(self):
        for n, expected in ALPHA_N.items():
            assert alpha_record(n).require_alpha() == expected, n

    def test_record_fields(self):
        rec = alpha_record(30)
        assert rec.d == 2
        assert rec.chi == 4
        assert rec.top_chains == 6
        assert rec.H1 == Fr(1, 2)
        assert rec.alpha == Fr(3, 4)

    def test_chi_zero(self):
        rec = alpha_record(94)
        assert rec.chi == 0
        assert rec.alpha is None
        with pytest.raises(ChiZero):
            rec.require_alpha()
        # One condition, one class: theorem_report raises the same one.
        with pytest.raises(ZeroEulerCharacteristic):
            rec.require_alpha()

    def test_small_n_rejected(self):
        # Below 6 the dimension is 0: the record is filled, alpha is not.
        rec = alpha_record(5)
        assert rec.d == 0
        assert rec.alpha is None
        with pytest.raises(DimensionZero):
            rec.require_alpha()
        with pytest.raises(ValueError, match="n must be >= 2"):
            alpha_record(1)


def test_build_Pn_is_the_poset_of_its_divisibility_pairs():
    # The input builder, with its label lookup, sort and closure, is the
    # oracle for the rows build_Pn writes down directly.
    for n in [*range(2, 401), 2310]:
        elements = [k for k in range(2, n + 1)
                    if all(k % (q * q) for q in range(2, isqrt(k) + 1))]
        pairs = [(str(a), str(b)) for a, b in combinations(elements, 2)
                 if b % a == 0]
        want = build_poset(map(str, elements), pairs)
        got = build_Pn(n)
        assert (got.labels, got.above) == (want.labels, want.above), n


def test_build_Pn_relations_are_divisibility():
    p = build_Pn(42)
    elems = [int(s) for s in p.labels]
    for a, b in combinations(elems, 2):
        proper_divides = a != b and (b % a == 0 or a % b == 0)
        related = p.less(str(a), str(b)) or p.less(str(b), str(a))
        assert related == proper_divides, (a, b)
