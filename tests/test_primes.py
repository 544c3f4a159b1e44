import functools
from bisect import bisect_right
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
    top_chain_count,
)
from helpers import FIXED_SEED, linear_sieve_codes
from posetzeta.primes import DEFAULT_SIEVE_CAP
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


def tables_from_codes(codes):
    """mu, its prefix sums and the weight lists read off sieve codes."""
    mu = [0 if c == 255 else (-1) ** c for c in codes]
    weights = [[] for _ in range(max(set(codes) - {255}) + 1)]
    for k, c in enumerate(codes):
        if c != 255:
            weights[c].append(k)
    return mu, list(accumulate(mu)), weights


@functools.cache
def brute_weights(limit):
    """Number of prime factors of each squarefree k in [2, limit]."""
    return {k: len(brute_prime_factors(k)) for k in brute_squarefree(limit)}


class TestSieve:
    def test_small_sets(self):
        t = SquarefreeTable(10)
        assert list(t.mu) == [0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
        assert list(t.mertens) == [0, 1, 0, -1, -1, -2, -1, -2, -2, -2, -1]
        assert [list(a) for a in t.by_weight] == [[1], [2, 3, 5, 7], [6, 10]]

    def test_against_brute_force(self):
        n = 500
        t = SquarefreeTable(n)
        assert t.n == n
        assert list(t.mu) == [0] + [brute_mobius(k) for k in range(1, n + 1)]
        weights = brute_weights(n)
        expected = [[1]] + [
            [k for k in brute_squarefree(n) if weights[k] == w]
            for w in range(1, max(weights.values()) + 1)
        ]
        assert [list(a) for a in t.by_weight] == expected

    def test_against_linear_sieve(self):
        # The code of k does not depend on n >= k, so the tables of every
        # n <= 3000 are prefixes of the oracle's at 3000.
        mu, mertens, weights = tables_from_codes(linear_sieve_codes(3000))
        for n in range(2, 3001):
            t = SquarefreeTable(n)
            assert list(t.mu) == mu[:n + 1], n
            assert list(t.mertens) == mertens[:n + 1], n
            trimmed = [w[:bisect_right(w, n)] for w in weights]
            assert [list(a) for a in t.by_weight] == [w for w in trimmed if w]

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_against_linear_sieve_large(self, n):
        mu, mertens, weights = tables_from_codes(linear_sieve_codes(n))
        t = SquarefreeTable(n)
        assert list(t.mu) == mu
        assert list(t.mertens) == mertens
        assert [list(a) for a in t.by_weight] == weights

    def test_omega_and_weight(self):
        # The cached table may reach past 30; weights are read up to 30.
        t = squarefree_sieve(30)
        assert t.n >= 30
        assert [k for k in t.by_weight[3] if k <= 30] == [30]
        assert 7 in t.by_weight[1]
        assert 30 not in t.by_weight[2]

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
