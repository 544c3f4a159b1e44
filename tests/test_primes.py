from fractions import Fraction as Fr
from itertools import combinations
from math import factorial

import pytest

from posetzeta import (
    ChiZero,
    RangeTooLarge,
    alpha_record,
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
from helpers import FIXED_SEED
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


class TestSieve:
    def test_small_sets(self):
        t = squarefree_sieve(10)
        assert t.squarefree(10) == [2, 3, 5, 6, 7, 10]
        assert t.mobius(6) == 1
        assert t.mobius(4) == 0
        assert t.mobius(30) == -1
        assert t.factors(10) == (2, 5)
        assert not t.is_squarefree(4)

    def test_against_brute_force(self):
        t = squarefree_sieve(500)
        assert t.squarefree(500) == brute_squarefree(500)
        for k in range(2, 200):
            assert t.factors(k) == brute_prime_factors(k)

    def test_omega_and_weight(self):
        t = squarefree_sieve(30)
        assert t.omega(30) == 3
        assert t.omega(7) == 1

    def test_cap(self):
        with pytest.raises(RangeTooLarge):
            squarefree_sieve(100, cap=50)
        with pytest.raises(ValueError):
            squarefree_sieve(1)


class TestMertens:
    def test_values(self):
        assert mertens(1) == 1
        assert mertens(2) == 0
        assert mertens(3) == -1
        assert mertens(5) == -2
        assert mertens(10) == -1

    def test_brute_force(self):
        t = squarefree_sieve(300)
        acc = 0
        for n in range(1, 300):
            acc += t.mobius(n)
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
        assert total == len(squarefree_sieve(x).squarefree(x))

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
        with pytest.raises(ValueError):
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

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            alpha_record(5)


def test_build_Pn_relations_are_divisibility():
    p = build_Pn(42)
    elems = [int(s) for s in p.labels]
    for a, b in combinations(elems, 2):
        proper_divides = a != b and (b % a == 0 or a % b == 0)
        related = p.less(str(a), str(b)) or p.less(str(b), str(a))
        assert related == proper_divides, (a, b)
