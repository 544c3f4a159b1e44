"""Chain-count triangles, descent matrices, and subdivision dynamics.

The three number families (f, F, H) and the matrix identities relating
them drive everything downstream: the transfer matrix that evolves chain
vectors under repeated subdivision, the spectral constants of that
recurrence, and the limit polynomial whose roots attract the bounded
zeros of the chain series.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate, permutations
from math import comb, factorial, gcd
from operator import add, mul

from .errors import BruteForceTooLarge, DimensionZero, IndexOutOfRange
from .linalg import ExactMatrix
from .polynomial import ExactPolynomial
from .poset import ChainVector, chain_vector

BRUTE_FORCE_MAX_D = 8


# Row d + 1 holds (f_{-1,d}, f_{0,d}, ..., f_{d,d}), so entry [j + 1][i + 1]
# is f_{i,j}.  Rows are appended as larger d are asked for, never rebuilt.
_f_rows = [(1,)]


def _f_triangle(d):
    # Ordered partitions of d + 1 vertices into i + 1 blocks, (i+1)!
    # S(d+1, i+1): the last vertex joins one of the i + 1 blocks of a
    # partition of the others, or is a block of its own at one of i + 1
    # places, so f_{i,d} = (i+1) (f_{i,d-1} + f_{i-1,d-1}).
    for n in range(len(_f_rows), d + 2):
        prev = _f_rows[-1] + (0,)
        sums = map(add, prev, prev[1:])
        _f_rows.append((0, *map(mul, range(1, n + 1), sums)))
    return _f_rows


def f_number(i, d):
    """Chains of length i in the subdivision ending at a fixed d-chain.

    Entries are read from rows of the triangle, built once per process by
    the recurrence f_{i,d} = (i+1) (f_{i,d-1} + f_{i-1,d-1}): the first
    call with a given d builds every row up to d not built yet.
    """
    if i < -1 or d < -1:
        raise ValueError("indices must be >= -1")
    # f_{-1,-1} = 1; 0 for i > d, and when exactly one index is -1.
    return _f_triangle(d)[d + 1][i + 1] if i <= d else 0


@cache
def _F_column(d):
    # Integers a_0..a_d and den with F_{i,d} = a_i / den, by integer
    # back-substitution of f F = (d+1)! F from a_d = den = 1.  Step i
    # solves a_i = s / m, m = (d+1)! - (i+1)!, and puts the entries above
    # it over m (both reduced by gcd(s, m)).  Each entry is kept at the
    # scale it was made at, with its step's m_i: step i forms s by Horner
    # from j = d down, s = s m_j + f_{i,j} kept_j, and the entries are
    # scaled once at the end, a_j = kept_j prod_{k<j} m_k, den = prod m_k.
    rows = _f_triangle(d)
    kept = [0] * d + [1]
    ms = [1] * (d + 1)
    fact = factorial(d + 1)
    for i in range(d - 1, -1, -1):
        s = 0
        for j in range(d, i, -1):
            s = s * ms[j] + rows[j + 1][i + 1] * kept[j]
        m = fact - factorial(i + 1)
        g = gcd(s, m)
        ms[i] = m // g
        kept[i] = s // g
    scales = list(accumulate(ms, mul, initial=1))
    return tuple(map(mul, kept, scales)), scales[-1]


def big_F_number(i, d):
    """Eigenvector component for the top eigenvalue of the f-matrix."""
    if d < 0 or i < -1 or i > d:
        raise IndexOutOfRange(f"F_{{{i},{d}}} undefined")
    if i == -1:
        return Fraction(0)
    a, den = _F_column(d)
    return Fraction(a[i], den)


def F_polynomial(d):
    """Polynomial with coefficient of s^(d-i) equal to F_{i,d}."""
    if d < 0:
        raise IndexOutOfRange("d must be >= 0")
    a, den = _F_column(d)
    return ExactPolynomial([Fraction(x, den) for x in reversed(a)])


def H_vector(d):
    """Coefficients (H_0, ..., H_{d+1}) of the shift of F_d to s - 1.

    With F_{i,d} = a_i / den, H is the integer Taylor shift of
    sum_i a_i s^(d-i) to s - 1, over den, so H_{d+1} = 0.  At d = 0,
    where the shift degenerates, H is (0, 1).
    """
    if d < 0:
        raise IndexOutOfRange("d must be >= 0")
    return _H_vector(d)


@cache
def _H_vector(d):
    h, den = _H_column(d)
    return tuple(Fraction(x, den) for x in h)


@cache
def _H_column(d):
    # Integers h_0..h_{d+1} and den with H_{i,d} = h_i / den: the Taylor
    # shift to s - 1 of sum_i a_i s^(d-i), (a, den) = _F_column(d), then
    # h_{d+1} = 0.
    if d == 0:
        return (0, 1), 1
    a, den = _F_column(d)
    return ExactPolynomial(reversed(a)).shifted(-1).coeffs + (0,), den


def integer_column(kind, d):
    """Integers (n_0, ...) and den with X_{i,d} = n_i / den, X = kind.

    kind is "F" (i = 0..d) or "H" (i = 0..d+1), d >= 0: the exact
    columns behind big_F_number and H_vector, for printing without a
    Fraction per entry.  den is positive and need not be coprime to n_i.
    """
    if d < 0:
        raise IndexOutOfRange("d must be >= 0")
    return (_F_column if kind == "F" else _H_column)(d)


def H_polynomial(d):
    """Self-reciprocal limit polynomial; effective degree d - 1.

    Coefficient of s^(d-i) is H_{i,d}, which is H_{d+1-i,d}, so this is
    H_vector(d) without H_0; at d = 0 it is the constant polynomial 1.
    """
    return ExactPolynomial(H_vector(d)[1:])


def _descent_recurrence(d):
    # Indices -1..m stored with offset 1, from m = -1.  Entry (i, j) sums
    # row i - 1 of m - 1 below column j and row i from j on, read off the
    # prefix sums of the previous rows with a zero row added at each end.
    h = [[1]]
    for m in range(d + 1):
        zero = [0] * (m + 1)
        pre = [list(accumulate(row, initial=0)) for row in (zero, *h, zero)]
        h = [
            [a[j] + b[-1] - b[j] for j in range(m + 2)]
            for a, b in zip(pre, pre[1:])
        ]
    return h


def _descents(seq):
    return sum(1 for a, b in zip(seq, seq[1:]) if a > b)


def _descent_brute_force(d):
    n = d + 2
    counts = [[0] * (d + 2) for _ in range(d + 2)]
    for j in range(1, n + 1):
        rest = [v for v in range(1, n + 1) if v != j]
        for perm in permutations(rest):
            i = _descents((j,) + perm)
            # A(n, i, j) contributes to entry (i - 1, j - 2) in natural
            # indices, i.e. offset storage (i, j - 1).
            counts[i][j - 1] += 1
    return counts


def descent_matrix(d, method="recurrence"):
    """Matrix of first-value/descent permutation counts, indexed -1..d."""
    if d < 0:
        raise IndexOutOfRange("d must be >= 0")
    if method == "recurrence":
        entries = _descent_recurrence(d)
    elif method == "brute_force":
        if d > BRUTE_FORCE_MAX_D:
            raise BruteForceTooLarge(
                f"brute force enumerates {factorial(d + 2)} permutations"
            )
        entries = _descent_brute_force(d)
    else:
        raise ValueError(f"unknown method {method!r}")
    return ExactMatrix(entries)


def f_matrix(d):
    """Upper-triangular chain-transfer matrix, integer entries f_{i,j}.

    Indices -1..d with diagonal 0!..(d+1)!.  Its rows 0..d, read from
    column 0, act on chain vectors (see transfer_iterate).
    """
    if d < 0:
        raise IndexOutOfRange("d must be >= 0")
    # Row j + 1 of the triangle, padded with zeros, is column j.
    columns = (r + (0,) * (d + 2 - len(r)) for r in _f_triangle(d)[:d + 2])
    return ExactMatrix(zip(*columns))


def taylor_matrix(d, inverse=False):
    """Matrix of the coefficient shift to s = -1, or its inverse."""
    if d < 0:
        raise IndexOutOfRange("d must be >= 0")
    if inverse:
        entries = [
            [comb(j + 1, d - i) for j in range(-1, d + 1)]
            for i in range(-1, d + 1)
        ]
    else:
        entries = [
            [
                (-1) ** (d + 1 + i + j) * comb(d - j, i + 1)
                for j in range(-1, d + 1)
            ]
            for i in range(-1, d + 1)
        ]
    return ExactMatrix(entries)


@dataclass(frozen=True)
class SimilarityReport:
    d: int
    inverse_ok: bool
    similarity_ok: bool
    f_eigenvector_ok: bool
    h_eigenvector_ok: bool

    @property
    def ok(self):
        return (
            self.inverse_ok
            and self.similarity_ok
            and self.f_eigenvector_ok
            and self.h_eigenvector_ok
        )


def verify_similarity(d):
    """Exact check of the conjugation and eigenvector identities."""
    t = taylor_matrix(d)
    t_inv = taylor_matrix(d, inverse=True)
    fm = f_matrix(d)
    hm = descent_matrix(d)
    inverse_ok = (t * t_inv) == ExactMatrix.identity(d + 2)
    similarity_ok = (t * fm * t_inv) == hm
    lam = factorial(d + 1)
    f_vec = [big_F_number(i, d) for i in range(-1, d + 1)]
    f_eigen_ok = (fm * f_vec) == [lam * v for v in f_vec]
    h_vec = list(H_vector(d))
    h_eigen_ok = (hm * h_vec) == [lam * v for v in h_vec]
    return SimilarityReport(d, inverse_ok, similarity_ok, f_eigen_ok, h_eigen_ok)


def transfer_iterate(start, k):
    """Apply the transfer step N'_i = sum_{j>=i} f_{i,j} N_j k times."""
    if k < 0:
        raise ValueError("k must be >= 0")
    d = start.dim
    tri = _f_triangle(d)
    rows = [[r[i + 1] for r in tri[i + 1:d + 2]] for i in range(d + 1)]
    counts = start.counts
    for _ in range(k):
        counts = [sum(map(mul, r, counts[i:])) for i, r in enumerate(rows)]
    return ChainVector(counts)


@dataclass(frozen=True)
class SpectralConstants:
    """Partial-fraction constants of the chain-count generating functions.

    C[j][i] is the coefficient of the geometric mode with ratio
    (d+1-j)! in the count of length-i chains; j runs over 0..d-i.
    """

    d: int
    C: tuple

    def get(self, j, i):
        if not (0 <= i <= self.d and 0 <= j <= self.d - i):
            raise IndexOutOfRange(f"C_{{{j},{i}}} undefined")
        return self.C[j][i]

    def reconstruct(self, i, k):
        """Chain count of length i after k subdivisions."""
        return sum(
            self.get(j, i) * Fraction(factorial(self.d + 1 - j)) ** k
            for j in range(self.d - i + 1)
        )


def spectral_constants(p):
    """Exact transfer eigendecomposition for a poset or its ChainVector."""
    start = chain_vector(p)
    d = start.dim
    if d < 1:
        raise DimensionZero("spectral constants need dimension >= 1")
    # The eigenvector of the transfer step for eigenvalue (m+1)! is
    # F_{i,m} = a_i / den, (a, den) = _F_column(m), on indices i = 0..m,
    # with F_{m,m} = 1, so the expansion of the start vector over the
    # eigenbasis is triangular.  C[j] is mode (d+1-j)!, that is m = d - j.
    residual = [Fraction(c) for c in start.counts]
    C = []
    for m in range(d, -1, -1):
        a, den = _F_column(m)
        scale = residual[m] / den
        C.append(tuple(scale * x for x in a))
        residual[:m] = [r - c for r, c in zip(residual[:m], C[-1])]
    return SpectralConstants(d, tuple(C))


@dataclass(frozen=True)
class RowPropertyReport:
    d: int
    top_row_powers_ok: bool
    monotone_chain_ok: bool
    rotational_symmetry_ok: bool

    @property
    def ok(self):
        return (
            self.top_row_powers_ok
            and self.monotone_chain_ok
            and self.rotational_symmetry_ok
        )


def h_row_properties(d):
    """Top-row powers of two, the monotone chain, and rotational symmetry."""
    if d < 1:
        raise IndexOutOfRange("d must be >= 1")
    hm = descent_matrix(d)
    powers_ok = all(hm.get(0, j) == 2 ** (d - j) for j in range(d + 1))
    m = (d - 1) // 2
    last_j = -1 if d % 2 == 0 else m
    chain = []
    for i in range(m + 1):
        stop = last_j if i == m else -1
        for j in range(d, stop - 1, -1):
            chain.append(hm.get(i, j))
    monotone_ok = all(a <= b for a, b in zip(chain, chain[1:]))
    rotation_ok = all(
        hm.get(i, j) == hm.get(d - 1 - i, d - 1 - j)
        for i in range(-1, d + 1)
        for j in range(-1, d + 1)
    )
    return RowPropertyReport(d, powers_ok, monotone_ok, rotation_ok)


@dataclass(frozen=True)
class BoundsReport:
    d_max: int
    per_d: dict = field(compare=False)

    @property
    def ok(self):
        return all(all(flags.values()) for flags in self.per_d.values())


def H1_bounds_check(d_max):
    """Exact two-sided bounds on H_1, positivity, and self-reciprocity.

    The irrational lower bound sqrt(2)^d is compared by squaring both
    sides, keeping the whole check rational.
    """
    if d_max < 1:
        raise IndexOutOfRange("d_max must be >= 1")
    per_d = {}
    for d in range(1, d_max + 1):
        hv = H_vector(d)
        h1 = hv[1]
        lower_ok = h1 > 0 and (
            (Fraction(factorial(d + 1) * d) * h1) ** 2 >= 2 ** d
        )
        upper_ok = h1 <= Fraction(2 ** (d + 1), factorial(d + 1))
        positive_ok = all(hv[i] > 0 for i in range(1, d + 1))
        reciprocal_ok = all(
            hv[i] == hv[d + 1 - i] for i in range(d + 2)
        )
        per_d[d] = {
            "lower": lower_ok,
            "upper": upper_ok,
            "positive": positive_ok,
            "self_reciprocal": reciprocal_ok,
        }
    return BoundsReport(d_max, per_d)
