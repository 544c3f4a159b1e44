import inspect
import sys
from fractions import Fraction as Fr
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings

from posetzeta import (
    BruteForceTooLarge,
    ChainVector,
    DimensionZero,
    ExactMatrix,
    ExactPolynomial,
    F_polynomial,
    H1_bounds_check,
    H_polynomial,
    H_vector,
    IndexOutOfRange,
    barycentric_subdivision,
    big_F_number,
    build_poset,
    build_Pn,
    descent_matrix,
    f_matrix,
    f_number,
    h_row_properties,
    simplex_face_poset,
    spectral_constants,
    strict_chain_vector,
    taylor_matrix,
    transfer_iterate,
    verify_similarity,
)
from posetzeta.subdivision import integer_column
from posetzeta.zeta import g_from_chain_vector
from helpers import (
    F_column_by_rescaling,
    H_vector_by_composition,
    big_F_by_recurrence,
    chain_vectors,
    descent_by_recursion,
    descents,
    f_by_inclusion_exclusion,
    f_by_recursion,
    flag_chain_count,
    shift_by_composition,
    spectral_constants_by_big_F,
    taylor_by_guarded_entries,
)
from reference_tables import (
    DESCENT_MATRICES,
    F_BIG_TABLE,
    F_MATRICES,
    F_SMALL_TABLE,
    H_TABLE,
)


def p6():
    return build_poset(["2", "3", "5", "6"], [("2", "6"), ("3", "6")])


class TestFNumbers:
    def test_table(self):
        for i in range(8):
            for d in range(8):
                assert f_number(i, d) == F_SMALL_TABLE[i][d], (i, d)

    def test_conventions(self):
        assert f_number(-1, -1) == 1
        assert f_number(-1, 5) == 0
        assert f_number(3, -1) == 0
        assert f_number(5, 3) == 0

    def test_closed_forms(self):
        for d in range(10):
            assert f_number(d, d) == factorial(d + 1)
            assert f_number(1, d) == 2 * (2 ** d - 1)
            if d >= 1:
                assert 2 * f_number(d - 1, d) == d * factorial(d + 1)

    def test_flag_oracle(self):
        for d in range(7):
            for i in range(d + 1):
                assert f_number(i, d) == flag_chain_count(i, d), (i, d)

    def test_rows_built_without_recursion(self):
        limit = sys.getrecursionlimit()
        depth = len(inspect.stack(0))
        sys.setrecursionlimit(depth + 100)
        try:
            assert f_number(3, 400) == f_by_inclusion_exclusion(3, 400)
        finally:
            sys.setrecursionlimit(limit)

    def test_alternating_sum(self):
        for d in range(13):
            total = sum((-1) ** i * f_number(i, d) for i in range(d + 1))
            assert total == (-1) ** d


class TestBigFNumbers:
    def test_table(self):
        for (i, d), expected in F_BIG_TABLE.items():
            assert big_F_number(i, d) == expected, (i, d)

    def test_conventions(self):
        assert big_F_number(5, 5) == 1
        assert big_F_number(-1, 3) == 0
        with pytest.raises(IndexOutOfRange):
            big_F_number(4, 3)

    def test_polynomial(self):
        assert F_polynomial(0) == ExactPolynomial([1])
        assert F_polynomial(1) == ExactPolynomial([1, 1])
        assert F_polynomial(2) == ExactPolynomial([1, Fr(3, 2), Fr(1, 2)])


class TestHNumbers:
    def test_table(self):
        for d in range(1, 8):
            hv = H_vector(d)
            assert len(hv) == d + 2
            assert hv[0] == 0 and hv[d + 1] == 0
            for i in range(1, d + 1):
                assert hv[i] == H_TABLE[(i, d)], (i, d)

    def test_matches_polynomial_shift(self):
        for d in range(1, 31):
            shifted = shift_by_composition(F_polynomial(d), -1)
            hv = H_vector(d)
            assert hv == tuple(shifted[k] for k in range(d + 2)), d
            assert all(type(h) is Fr for h in hv), d

    def test_d0_convention(self):
        assert H_vector(0) == (Fr(0), Fr(1))
        assert H_polynomial(0) == ExactPolynomial([1])

    def test_polynomials(self):
        assert H_polynomial(1) == ExactPolynomial([1])
        assert H_polynomial(2) == ExactPolynomial([Fr(1, 2), Fr(1, 2)])
        assert H_polynomial(3) == ExactPolynomial(
            [Fr(2, 11), Fr(7, 11), Fr(2, 11)]
        )

    def test_sum_is_one(self):
        for d in range(1, 12):
            assert sum(H_vector(d)) == 1
            # Equivalent statements through the two polynomials.
            assert sum(H_polynomial(d).coeffs) == 1
            assert F_polynomial(d)[0] == 1


def test_numbers_match_slow_routes():
    for i in range(-1, 61):
        for d in range(-1, 61):
            assert f_number(i, d) == f_by_recursion(i, d), (i, d)
    for d in range(61, 101):
        row = [f_number(i, d) for i in range(-1, d + 2)]
        assert row == [f_by_inclusion_exclusion(i, d) for i in range(-1, d + 2)]
    for d in range(41):
        column = [big_F_by_recurrence(i, d) for i in range(-1, d + 1)]
        assert [big_F_number(i, d) for i in range(-1, d + 1)] == column, d
        oracle = ExactPolynomial(reversed(column))
        assert F_polynomial(d) == oracle, d
        if d:
            shifted = shift_by_composition(oracle, -1)
            assert H_vector(d) == tuple(shifted[k] for k in range(d + 2)), d


def test_F_column_matches_rescaling():
    for d in range(61):
        assert integer_column("F", d) == F_column_by_rescaling(d), d


def test_H_column_matches_composition():
    for d in range(61):
        h, den = integer_column("H", d)
        assert len(h) == d + 2 and all(type(x) is int for x in h), d
        oracle = H_vector_by_composition(d)
        assert tuple(Fr(x, den) for x in h) == oracle, d
        assert H_vector(d) == oracle, d


class TestDescentMatrix:
    def test_displayed_matrices(self):
        for d, expected in DESCENT_MATRICES.items():
            got = descent_matrix(d)
            assert [
                [int(v) for v in row] for row in got.entries
            ] == expected, d

    def test_brute_force_agrees(self):
        for d in range(7):
            assert descent_matrix(d, "recurrence") == descent_matrix(
                d, "brute_force"
            )

    def test_recursion_agrees(self):
        for d in range(31):
            want = ExactMatrix(descent_by_recursion(d))
            assert descent_matrix(d) == want, d

    def test_brute_force_cap(self):
        with pytest.raises(BruteForceTooLarge):
            descent_matrix(9, "brute_force")

    def test_entries_are_permutation_counts(self):
        # Spot-check against a direct descent statistic at d = 3.
        d = 3
        hm = descent_matrix(d)
        n = d + 2
        for i in range(-1, d + 1):
            for j in range(-1, d + 1):
                first = j + 2
                rest = [v for v in range(1, n + 1) if v != first]
                count = sum(
                    1
                    for perm in permutations(rest)
                    if descents((first,) + perm) == i + 1
                )
                assert hm.get(i, j) == count

    def test_column_sums(self):
        # Inner block columns all sum to (d+1)!.
        for d in range(1, 9):
            hm = descent_matrix(d)
            sums = {
                sum(hm.get(i, j) for i in range(0, d))
                for j in range(0, d)
            }
            assert sums == {factorial(d + 1)}


class TestTransferMatrices:
    def test_displayed_f_matrices(self):
        for d, expected in F_MATRICES.items():
            got = f_matrix(d)
            assert [
                [int(v) for v in row] for row in got.entries
            ] == expected, d

    def test_diagonal_unprimed(self):
        fm = f_matrix(4)
        assert [fm.get(i, i) for i in range(-1, 5)] == [
            factorial(i) for i in range(6)
        ]


class TestTaylorMatrix:
    def test_inverse_identity(self):
        for d in range(9):
            t = taylor_matrix(d)
            t_inv = taylor_matrix(d, inverse=True)
            prod = t * t_inv
            for i in range(-1, d + 1):
                for j in range(-1, d + 1):
                    assert prod.get(i, j) == (1 if i == j else 0)

    def test_guarded_entries_agree(self):
        for d in range(41):
            guarded = ExactMatrix(taylor_by_guarded_entries(d))
            assert taylor_matrix(d) == guarded, d
            inverse = taylor_matrix(d, inverse=True)
            assert guarded * inverse == ExactMatrix.identity(d + 2), d

    def test_acts_as_coefficient_shift(self):
        # Applying to the coefficient vector of F_d gives the shift
        # coefficients scaled as derivatives at -1.
        for d in range(1, 6):
            t = taylor_matrix(d)
            vec = [big_F_number(i, d) for i in range(-1, d + 1)]
            out = t * vec
            assert tuple(out) == H_vector(d)


class TestSimilarity:
    def test_suite(self):
        for d in range(9):
            report = verify_similarity(d)
            assert report.ok, report

    def test_d2_matches_display(self):
        t = taylor_matrix(2)
        t_inv = taylor_matrix(2, inverse=True)
        fm = f_matrix(2)
        prod = t * fm * t_inv
        assert [
            [int(v) for v in row] for row in prod.entries
        ] == DESCENT_MATRICES[2]


class TestTransferIterate:
    def test_identity_at_zero(self):
        cv = strict_chain_vector(p6())
        assert transfer_iterate(cv, 0) == cv

    def test_p6_closed_form(self):
        cv = strict_chain_vector(p6())
        for k in range(11):
            got = transfer_iterate(cv, k)
            assert got.counts == (2 ** (k + 1) + 2, 2 ** (k + 1))

    def test_matches_explicit_subdivision(self):
        posets = [p6(), build_Pn(30), simplex_face_poset(3)]
        for p in posets:
            cv = strict_chain_vector(p)
            q = p
            for k in range(1, 3):
                q = barycentric_subdivision(q)
                assert (
                    transfer_iterate(cv, k).counts
                    == strict_chain_vector(q).counts
                )

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(chain_vectors())
    def test_one_step_is_f_matrix(self, cv):
        # Row -1 of the f-matrix meets the padded 0 and is dropped.
        got = transfer_iterate(cv, 1)
        want = f_matrix(cv.dim) * [0, *cv.counts]
        assert got.counts == tuple(want[1:])
        assert all(type(n) is int for n in got.counts)


class TestSpectralConstants:
    def test_p6(self):
        sc = spectral_constants(p6())
        assert sc.get(0, 1) == 2
        assert sc.get(0, 0) == 2
        assert sc.get(1, 0) == 2

    def test_top_mode_formula(self):
        for p in (p6(), build_Pn(30), simplex_face_poset(3)):
            sc = spectral_constants(p)
            cv = strict_chain_vector(p)
            d = sc.d
            for i in range(d + 1):
                assert sc.get(0, i) == cv[d] * big_F_number(i, d)

    def test_reconstruction(self):
        for p in (p6(), build_Pn(30), simplex_face_poset(3)):
            sc = spectral_constants(p)
            cv = strict_chain_vector(p)
            for k in range(6):
                iterated = transfer_iterate(cv, k)
                for i in range(sc.d + 1):
                    assert sc.reconstruct(i, k) == iterated[i]

    def test_mode_sum_is_start_vector(self):
        sc = spectral_constants(build_Pn(30))
        cv = strict_chain_vector(build_Pn(30))
        for i in range(sc.d + 1):
            assert sum(
                sc.get(j, i) for j in range(sc.d - i + 1)
            ) == cv[i]

    def test_dimension_zero(self):
        antichain = build_poset(["a", "b"], [])
        with pytest.raises(DimensionZero):
            spectral_constants(antichain)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(chain_vectors().filter(lambda cv: cv.dim >= 1))
    def test_integer_columns_match_big_F_oracle(self, cv):
        sc = spectral_constants(cv)
        assert sc.C == spectral_constants_by_big_F(cv).C
        for k in range(4):
            iterated = transfer_iterate(cv, k)
            for i in range(cv.dim + 1):
                assert sc.reconstruct(i, k) == iterated[i]


class TestRowProperties:
    def test_suite(self):
        for d in range(1, 9):
            report = h_row_properties(d)
            assert report.ok, report

    def test_top_row_values(self):
        hm = descent_matrix(4)
        assert [hm.get(0, j) for j in range(5)] == [16, 8, 4, 2, 1]


class TestBounds:
    def test_suite(self):
        report = H1_bounds_check(15)
        assert report.ok

    def test_d1_by_hand(self):
        flags = H1_bounds_check(1).per_d[1]
        assert all(flags.values())

    def test_known_self_reciprocal_pair(self):
        assert H_vector(5)[2] == H_vector(5)[4] == Fr(2344, 10411)


def test_gk_sup_norm_converges_to_limit_polynomial():
    # The rescaled iterated numerator approaches the limit polynomial;
    # the sup-norm gap shrinks monotonically after a short burn-in.
    for p in (build_Pn(30), simplex_face_poset(3), build_Pn(210)):
        cv = strict_chain_vector(p)
        d = cv.dim
        target = H_polynomial(d)
        gaps = []
        for k in range(3, 9):
            gk = g_from_chain_vector(transfer_iterate(cv, k))
            scale = Fr(factorial(d + 1)) ** k * cv[d]
            gap = max(
                abs(gk[e] / scale - target[e]) for e in range(d + 1)
            )
            gaps.append(gap)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: f_number(-2, 0), ValueError, "indices must be >= -1"),
        (lambda: f_number(0, -2), ValueError, "indices must be >= -1"),
        (lambda: F_polynomial(-1), IndexOutOfRange, "d must be >= 0"),
        (lambda: H_vector(-1), IndexOutOfRange, "d must be >= 0"),
        (lambda: descent_matrix(-1), IndexOutOfRange, "d must be >= 0"),
        (lambda: descent_matrix(2, "bogus"), ValueError, "unknown method"),
        (lambda: f_matrix(-1), IndexOutOfRange, "d must be >= 0"),
        (lambda: taylor_matrix(-1), IndexOutOfRange, "d must be >= 0"),
        (
            lambda: transfer_iterate(ChainVector((2, 1)), -1),
            ValueError,
            "k must be >= 0",
        ),
        (
            lambda: spectral_constants(ChainVector((2, 1))).get(0, 2),
            IndexOutOfRange,
            "C_{0,2} undefined",
        ),
        (
            lambda: spectral_constants(ChainVector((2, 1))).get(2, 0),
            IndexOutOfRange,
            "C_{2,0} undefined",
        ),
        (lambda: h_row_properties(0), IndexOutOfRange, "d must be >= 1"),
        (lambda: H1_bounds_check(0), IndexOutOfRange, "d_max must be >= 1"),
    ],
    ids=[
        "f_number-i", "f_number-d", "F_polynomial", "H_vector",
        "descent_matrix", "descent_matrix-method", "f_matrix",
        "taylor_matrix", "transfer_iterate", "SpectralConstants.get-i",
        "SpectralConstants.get-j", "h_row_properties", "H1_bounds_check",
    ],
)
def test_argument_checks(call, error, message):
    with pytest.raises(error, match=message.replace("{", "\\{")):
        call()
