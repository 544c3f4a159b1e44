"""Brute-force oracles and poset generators shared across the suite.

Each oracle recomputes its quantity by plain enumeration, independently
of the code path it cross-checks.
"""

import csv
import io
import json
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb, factorial

import mpmath as mp
from hypothesis import strategies as st

from posetzeta import (
    AlphaRecord,
    DivergentAtInfinity,
    ExactMatrix,
    ExactPolynomial,
    ExactRationalFunction,
    H_vector,
    build_poset,
    chi_Pn,
    dim_Pn,
    series_expand,
    top_chain_count,
)
from posetzeta.poset import ChainVector, _require_nonempty
from posetzeta.primes import _NOT_SQUAREFREE
from posetzeta.roots import START_ANGLE, RootSet, _assign
from posetzeta.subdivision import SpectralConstants, big_F_number

FIXED_SEED = 20240823


def random_poset(rng, max_elements=7, edge_prob=0.35):
    """Random DAG on index order, closed by build_poset."""
    n = rng.randint(1, max_elements)
    labels = [f"e{i}" for i in range(n)]
    relations = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    return build_poset(labels, relations)


def random_posets(count, seed=FIXED_SEED, **kwargs):
    rng = random.Random(seed)
    return [random_poset(rng, **kwargs) for _ in range(count)]


def chain_vectors(max_dim=20, max_count=2 ** 64):
    """Hypothesis strategy: positive chain vectors with d = 0..max_dim."""
    return st.lists(
        st.integers(1, max_count), min_size=1, max_size=max_dim + 1
    ).map(lambda counts: ChainVector(tuple(counts)))


@st.composite
def dags(draw, max_elements=7):
    """Hypothesis strategy: (labels, relations) of a DAG on 1..max_elements
    elements.

    Edges run forward in a hidden order of the elements, and labels are
    listed in another order, so the listing need not be topological.
    """
    n = draw(st.integers(1, max_elements))
    labels = draw(
        st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n,
                 unique=True)
    )
    order = draw(st.permutations(labels))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    relations = [pair for pair in pairs if draw(st.booleans())]
    return labels, relations


def brute_closure(relations):
    """Set of pairs (a, b) with a < b, closed by repeated composition."""
    less = set(map(tuple, relations))
    while True:
        more = {(a, d) for a, b in less for c, d in less if b == c} - less
        if not more:
            return less
        less |= more


def relation_pairs(p):
    """All strict pairs (a, b) of labels, a < b, in the file's order:
    sorted, as labels are unique.  The pairs write_poset and the
    subdivide CSV rows lay out."""
    labels = p.labels
    return sorted(
        (labels[i], labels[j]) for i, js in enumerate(p.above) for j in js
    )


def csv_document(header, rows):
    """CSV text by csv.writer, one row per line: the former route of
    every CSV document, the oracle for the cli's line-template writer.

    Each row is written with the terminator CRLF, which makes csv.writer
    quote a cell holding CR on every Python (before 3.13 it quotes only
    the characters of its terminator), and the final CRLF is then
    rewritten to LF.
    """
    lines = []
    for row in [header, *rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def poset_to_dict(p):
    """JSON-ready dict in the poset file format (all strict pairs).

    The former poset.poset_to_dict; the document the fixed-layout writer
    poset.write_poset lays out.
    """
    relations = [[a, b] for a, b in relation_pairs(p)]
    return {"elements": list(p.labels), "relations": relations}


def dumped_poset(p):
    """The poset file text by json.dump of the dict form, indent 2.

    The former body of save_poset; the oracle for the fixed-layout
    writer poset.write_poset.
    """
    buf = io.StringIO()
    json.dump(poset_to_dict(p), buf, indent=2)
    return buf.getvalue()


def brute_chains(p):
    """Every nonempty strict chain as an index tuple, least element first.

    Chains grow one element at a time by every element that p.less puts
    above their top, so the order is read only through p.less.
    """
    n = len(p)

    def less(a, b):
        return p.less(p.labels[a], p.labels[b])

    chains = []
    level = [(a,) for a in range(n)]
    while level:
        chains += level
        level = [c + (b,) for c in level for b in range(n) if less(c[-1], b)]
    return chains


def brute_strict_chain_counts(p):
    """N_i by checking every subset for being totally ordered."""
    n = len(p)
    counts = []
    for size in range(1, n + 1):
        total = 0
        for sub in combinations(range(n), size):
            if all(
                p.less(p.labels[a], p.labels[b])
                or p.less(p.labels[b], p.labels[a])
                for a, b in combinations(sub, 2)
            ):
                total += 1
        if total == 0:
            break
        counts.append(total)
    return tuple(counts)


def brute_weak_chain_count(p, i):
    """Weakly increasing sequences of length i, enumerated outright."""
    n = len(p)

    def le(a, b):
        return a == b or p.less(p.labels[a], p.labels[b])

    seqs = [(a,) for a in range(n)]
    for _ in range(i):
        seqs = [s + (b,) for s in seqs for b in range(n) if le(s[-1], b)]
    return len(seqs)


def flag_chain_count(i, d):
    """Strictly increasing flags of nonempty subsets ending at {1..d+1}.

    Counts chains S_0 < S_1 < ... < S_i = full set; the subset-lattice
    analogue of the subdivision chain numbers.
    """
    universe = frozenset(range(d + 1))
    subsets = [
        frozenset(c)
        for size in range(1, d + 2)
        for c in combinations(range(d + 1), size)
    ]
    counts = {s: 1 for s in subsets}
    for _ in range(i):
        nxt = {}
        for s in subsets:
            nxt[s] = sum(
                counts[t] for t in subsets if t < s
            )
        counts = nxt
    return counts[universe]


def subdivision_via_relations(p):
    """Barycentric subdivision rebuilt through build_poset.

    Every (proper sub-chain, chain) pair becomes a relation between
    joined label strings, and build_poset takes the closure again.
    """
    chains = sorted(brute_chains(p), key=lambda c: (len(c), c))

    def label(chain):
        return "|".join(p.labels[i] for i in chain)

    labels = [label(c) for c in chains]
    relations = []
    for chain in chains:
        if len(chain) == 1:
            continue
        full = label(chain)
        for k in range(1, len(chain)):
            for sub in combinations(chain, k):
                relations.append((label(sub), full))
    return build_poset(labels, relations)


def match_by_permutations(roots, targets):
    """Globally minimal-cost assignment of roots to fixed targets.

    Exhaustive search over every permutation; the oracle for
    roots._match.
    """
    if not targets:
        return (), ()
    best = None
    for perm in permutations(range(len(targets))):
        cost = sum(abs(roots[i] - targets[perm[i]]) for i in range(len(roots)))
        if best is None or cost < best[0]:
            best = (cost, perm)
    perm = best[1]
    matched = tuple(targets[perm[i]] for i in range(len(roots)))
    dists = tuple(
        abs(roots[i] - targets[perm[i]]) for i in range(len(roots))
    )
    return matched, dists


def match_by_perturbation(roots, targets, precision_bits):
    """roots._match's former search: the Hungarian method on mpf costs,
    each distance plus unit j cols^(rows-1-i), with unit 2^-(bits/2) of
    the largest distance over cols^rows, so that an assignment's summed
    perturbation stays below one unit and orders ties lexicographically.
    The oracle for the integer costs of roots._match; its perturbation
    falls below one ulp of the working precision once cols^rows passes
    about 2^192 at 256 bits, so it holds for small sets only.
    """
    if not targets:
        return (), ()
    rows, cols = len(roots), len(targets)
    dist = [[abs(r - t) for t in targets] for r in roots]
    unit = max(map(max, dist)) * mp.mpf(2) ** -(precision_bits // 2)
    unit /= cols ** rows
    picks = _assign(
        [
            [c + unit * j * cols ** (rows - 1 - i) for j, c in enumerate(row)]
            for i, row in enumerate(dist)
        ]
    )
    matched = tuple(targets[j] for j in picks)
    return matched, tuple(dist[i][j] for i, j in enumerate(picks))


def match_by_mpf_units(roots, targets, precision_bits):
    """roots._match's former body on mpc values: each mpf distance cut to
    whole units of 2^u, the power of 2 at or below 2^-(precision_bits/2)
    of the largest, through mp.frexp and mp.ldexp, with the same integer
    tie key, and the sorted pairing when as many roots as targets are
    exactly real and ascending.  The oracle for the integer distances of
    roots._match."""
    if not targets:
        return (), ()
    rows, cols = len(roots), len(targets)

    def ascending_reals(zs):
        return all(not z.imag for z in zs) and all(
            a.real <= b.real for a, b in zip(zs, zs[1:])
        )

    if rows == cols and ascending_reals(roots) and ascending_reals(targets):
        return tuple(targets), tuple(abs(r - t) for r, t in zip(roots, targets))
    dist = [[abs(r - t) for t in targets] for r in roots]
    u = mp.frexp(max(map(max, dist)))[1] - 1 - precision_bits // 2
    scale = cols ** rows
    low = [cols ** (rows - 1 - i) for i in range(rows)]
    picks = _assign([
        [int(mp.ldexp(c, -u)) * scale + j * low[i] for j, c in enumerate(row)]
        for i, row in enumerate(dist)
    ])
    matched = tuple(targets[j] for j in picks)
    return matched, tuple(dist[i][j] for i, j in enumerate(picks))


def is_real_by_mpf(z, precision_bits):
    """roots._is_real's former body on an mpc: |im z| <= 2^-(bits/4) |z|."""
    return abs(mp.im(z)) <= mp.mpf(2) ** -(precision_bits // 4) * abs(z)


def pick_beta1_by_mpf(roots, precision_bits):
    """roots._pick_beta1's former body on mpc values, returning the root:
    moduli within relative 2^-(bits/2) of the largest tie, and among them
    a numerically real root wins, then im > 0, then the smaller real part.
    The oracle for the integer decisions of roots._pick_beta1."""
    mods = [abs(z) for z in roots]
    floor = max(mods) * (1 - mp.mpf(2) ** -(precision_bits // 2))

    def key(z):
        real = is_real_by_mpf(z, precision_bits)
        return (not real, not real and mp.im(z) < 0, mp.re(z), mp.im(z))

    return min((z for z, m in zip(roots, mods) if m >= floor), key=key)


def gaussian_pairs(*sides):
    """The numbers of each side (mpc, mpf, complex or int) exactly, as
    integer pairs (x, y) over one power of 2, 2^g for every side, as
    roots._pick_beta1 and roots._match take them.  Returns the list of
    pairs of each side, then g."""
    dyadics = [[mpc_gaussian(mp.convert(z)) for z in side] for side in sides]
    g = max((f for side in dyadics for _, _, f in side), default=0)
    pairs = [[(x << g - f, y << g - f) for x, y, f in side] for side in dyadics]
    return (*pairs, g)


def root_set(roots, precision_bits):
    """A RootSet of the given mpc roots, in that order, with zero residuals
    and the exact form find_roots gives."""
    pairs, g = gaussian_pairs(roots)
    return RootSet(tuple(roots), (0,) * len(roots), precision_bits,
                   tuple(pairs), g)


def mp_newton_polygon_starts(coeffs):
    """One circle of starts per edge of the upper convex hull of the
    points (i, log|c_i|), c_i != 0 (Bini 1996).

    An edge from i to j carries j - i starts, evenly spaced on the
    circle of radius (|c_i| / |c_j|)^(1/(j-i)) and rotated by
    2 pi i / n + START_ANGLE, n the degree.  About j - i roots have
    modulus near that radius, so roots of very different sizes each
    start near their own circle.

    The former body of roots._newton_polygon_starts, in mpmath on mpf
    coefficients, run at 53 bits; the oracle for its double starts.
    """
    n = len(coeffs) - 1
    logs = {i: mp.log(abs(c)) for i, c in enumerate(coeffs) if c}
    hull = []
    for j in sorted(logs):
        # Drop the last vertex while it lies on or below the chord
        # from the one before it to j.
        while len(hull) >= 2 and (logs[hull[-1]] - logs[hull[-2]]) * (
            j - hull[-2]
        ) <= (logs[j] - logs[hull[-2]]) * (hull[-1] - hull[-2]):
            hull.pop()
        hull.append(j)
    starts = []
    for i, j in zip(hull, hull[1:]):
        m = j - i
        radius = mp.exp((logs[i] - logs[j]) / m)
        offset = 2 * mp.pi * i / n + START_ANGLE
        starts.extend(
            radius * mp.expj(2 * mp.pi * k / m + offset) for k in range(m)
        )
    return starts


def sign_scan_root_count(coeffs, lo, hi, steps):
    """Real roots of an integer polynomial in (lo, hi), counted by brute
    force: the sign changes of p, evaluated exactly, over the midpoints
    of `steps` equal cells of [lo, hi], with lo and hi integers.

    A root on a midpoint is skipped, so the count is exact once no cell
    holds two roots and no multiple root lies in the range.
    """
    den = 2 * steps
    n = len(coeffs) - 1
    signs = []
    for j in range(steps):
        num = lo * den + (hi - lo) * (2 * j + 1)  # the point num / den
        value = sum(c * num**i * den ** (n - i) for i, c in enumerate(coeffs))
        if value:
            signs.append(value > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def descents(seq):
    return sum(1 for a, b in zip(seq, seq[1:]) if a > b)


def adjacency_matrix(p):
    """Reflexive adjacency matrix: entry (i, j) = 1 iff i <= j."""
    _require_nonempty(p)
    n = len(p)
    return ExactMatrix(
        [
            [
                1 if i == j or j in p.above[i] else 0
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


class Poly(ExactPolynomial):
    """An ExactPolynomial with ring arithmetic: +, -, *, **, evaluation
    and exact division over the rationals.

    The package's polynomials hold coefficients and a Taylor shift only,
    so the oracles below run on this class and share no arithmetic with
    the code they check.  An int, a Fraction or a package polynomial
    mixes in as a Poly.
    """

    __slots__ = ()

    @staticmethod
    def of(x):
        return Poly(x.coeffs if isinstance(x, ExactPolynomial) else [x])

    def __add__(self, other):
        other = Poly.of(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -Poly.of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = Poly.of(other)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out, base = Poly([1]), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __divmod__(self, other):
        """(quotient, remainder), with Fraction quotient coefficients."""
        other = Poly.of(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        q = [0] * max(0, len(rem) - d)
        for k in range(len(rem) - 1, d - 1, -1):
            f = Fraction(rem[k], other.coeffs[-1])
            q[k - d] = f
            for j, b in enumerate(other.coeffs):
                rem[k - d + j] -= f * b
        return Poly(q), Poly(rem)


def poly_determinant(m):
    """Determinant of a square matrix of Poly entries.

    Bareiss fraction-free elimination: every division is exact in the
    polynomial ring, so intermediate entries stay polynomial instead of
    blowing up into rational functions.
    """
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Poly()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                if prev is not None:
                    num, rem = divmod(num, prev)
                    assert not rem, "inexact Bareiss division"
                a[i][j] = num
            a[i][k] = Poly()
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def determinant_zeta(p):
    """Chain series as sum{adj(I - A s)} / det(I - A s), not reduced.

    A is the reflexive adjacency matrix.  The cofactor sum uses the
    rank-one identity sum{adj(M)} = det(M + J) - det(M), J the all-ones
    matrix, so both parts are exact polynomial determinants.
    """
    a = adjacency_matrix(p)
    n = len(p)
    base = [
        [Poly([1 if i == j else 0, -a.entries[i][j]]) for j in range(n)]
        for i in range(n)
    ]
    det = poly_determinant(base)
    bumped = [
        [base[i][j] + 1 for j in range(n)]
        for i in range(n)
    ]
    adj_sum = poly_determinant(bumped) - det
    return ExactRationalFunction(adj_sum, det)


def g_by_powers(cv):
    """sum_i N_i s^i (1-s)^(d-i) by polynomial powers.

    The former body of zeta.g_from_chain_vector; the oracle for its
    integer h-transform.
    """
    d = cv.dim
    one_minus_s = Poly([1, -1])
    s = Poly([0, 1])
    total = Poly()
    for i, count in enumerate(cv.counts):
        total = total + count * (s ** i) * (one_minus_s ** (d - i))
    return total


def shift_by_composition(p, a):
    """p(s + a) by Horner-style composition with s + a.

    The oracle for the synthetic-division Taylor shift
    ExactPolynomial.shifted, which g_from_chain_vector and H_vector use.
    """
    out = Poly()
    s_plus_a = Poly([a, 1])
    for c in reversed(p.coeffs):
        out = out * s_plus_a + c
    return out


def residue_by_series(f):
    """-[coefficient of 1/s] of f at infinity, by a reversed series.

    The oracle for polynomial.residue_at_infinity, which reads the same
    coefficient off one polynomial division.
    """
    n = f.numerator.degree
    m = f.denominator.degree
    if n > m + 1:
        raise DivergentAtInfinity(
            "numerator degree exceeds denominator degree + 1"
        )
    # Substitute s = 1/u: f(1/u) = u^(m-n) * rev(num)(u) / rev(den)(u).
    target = 1 - (m - n)
    if target < 0:
        return Fraction(0)
    rev_num = ExactPolynomial(list(reversed(f.numerator.coeffs)))
    rev_den = ExactPolynomial(list(reversed(f.denominator.coeffs)))
    series = series_expand(ExactRationalFunction(rev_num, rev_den), target)
    return -series[target]


def f_by_inclusion_exclusion(i, d):
    """f_{i,d} = (i+1)! S(d+1, i+1) by inclusion-exclusion.

    The former body of subdivision.f_number: ordered partitions of d + 1
    vertices into i + 1 blocks, summed over the blocks left empty.  The
    oracle for its rows built by recurrence.
    """
    n = i + 1
    terms = ((-1) ** m * comb(n, m) * (n - m) ** (d + 1) for m in range(n + 1))
    return sum(terms) if i <= d else 0


@cache
def f_by_recursion(i, d):
    """f_{i,d} by the recursion over the last block's size.

    The former body of subdivision.f_number; the oracle for its closed
    form (i+1)! S(d+1, i+1).
    """
    if i == -1:
        return 1 if d == -1 else 0
    if d == -1 or i > d:
        return 0
    return sum(
        comb(d + 1, j) * f_by_recursion(i - 1, j - 1) for j in range(i, d + 1)
    )


@cache
def big_F_by_recurrence(i, d):
    """F_{i,d} by the Fraction recurrence, reduced once per term.

    The former body of subdivision.big_F_number; the oracle for its
    integer column over one denominator.
    """
    if i == d:
        return Fraction(1)
    if i == -1:
        return Fraction(0)
    total = sum(
        f_by_recursion(i, j) * big_F_by_recurrence(j, d)
        for j in range(i + 1, d + 1)
    )
    return Fraction(total, factorial(d + 1) - factorial(i + 1))


def spectral_constants_by_big_F(start):
    """Spectral constants, one big_F_number Fraction at a time.

    The former body of subdivision.spectral_constants; the oracle for its
    reading of the integer F columns.
    """
    d = start.dim
    coeffs = [Fraction(0)] * (d + 1)
    residual = [Fraction(c) for c in start.counts]
    for m in range(d, -1, -1):
        coeffs[m] = residual[m]
        for i in range(m + 1):
            residual[i] -= coeffs[m] * big_F_number(i, m)
    C = tuple(
        tuple(coeffs[d - j] * big_F_number(i, d - j) for i in range(d - j + 1))
        for j in range(d + 1)
    )
    return SpectralConstants(d, C)


def linear_sieve_codes(n):
    """Sieve codes of 0..n: 255 for an integer with a square factor, else
    its number of prime factors.

    The former body of primes.SquarefreeTable, a linear sieve with one
    Python step per integer; the oracle for its sieve over slices.
    """
    # code[1] = 0 is the weight of 1; any k > 1 still 0 at its turn
    # was never reached as a multiple, so it is prime.
    code = bytearray(n + 1)
    code[0] = _NOT_SQUAREFREE
    primes = []
    # Linear sieve: each composite is reached once, as i * p with p its
    # smallest prime factor, so p runs up to the first prime dividing
    # i.  Then i * p is squarefree iff i is and p does not divide i.
    for i in range(2, n + 1):
        c = code[i]
        if c == 0:
            code[i] = c = 1
            primes.append(i)
        next_code = _NOT_SQUAREFREE if c == _NOT_SQUAREFREE else c + 1
        lim = n // i
        for p in primes:
            if p > lim:
                break
            if i % p == 0:
                code[i * p] = _NOT_SQUAREFREE
                break
            code[i * p] = next_code
    return code


def alpha_record_per_n(n):
    """Growth record of P_n from its own queries: dim_Pn, chi_Pn and
    top_chain_count, each read off the sieve table for this n alone.

    The former body of primes.alpha_record; the oracle for the running
    sums of primes.alpha_records.
    """
    d = dim_Pn(n)
    chi = chi_Pn(n)
    top = top_chain_count(n)
    h1 = H_vector(d)[1]
    alpha = Fraction(h1 * top, chi) if d and chi else None
    return AlphaRecord(n=n, d=d, chi=chi, top_chains=top, H1=h1, alpha=alpha)


def descent_by_recursion(d):
    """Descent matrix entries, indices -1..d with offset 1, by recursion
    on d with a bounds-checked lookup into the previous matrix.

    The former body of subdivision._descent_recurrence; the oracle for
    its prefix-sum loop.
    """
    if d == 0:
        return [[1, 0], [0, 1]]
    prev = descent_by_recursion(d - 1)

    def h_prev(i, j):
        if i < -1 or i > d - 1 or j < -1 or j > d - 1:
            return 0
        return prev[i + 1][j + 1]

    out = []
    for i in range(-1, d + 1):
        row = []
        for j in range(-1, d + 1):
            v = sum(h_prev(i - 1, l) for l in range(-1, j))
            v += sum(h_prev(i, l) for l in range(j, d))
            row.append(v)
        out.append(row)
    return out


def taylor_by_guarded_entries(d):
    """Entries of the shift to s = -1 with the binomial guarded by hand.

    The former body of subdivision.taylor_matrix(d); the oracle for its
    unguarded entries, which rely on comb(n, k) = 0 for k > n.
    """
    return [
        [
            (-1) ** (d + 1 + i + j) * comb(d - j, i + 1)
            if 0 <= i + 1 <= d - j
            else 0
            for j in range(-1, d + 1)
        ]
        for i in range(-1, d + 1)
    ]


def mpc_gaussian(z):
    """An mpc exactly, as the Gaussian dyadic (x, y, f): the value
    (x + iy) / 2^f.  The former bridge of find_roots from its mpc roots
    back to dyadics; the oracle that reads a returned root exactly."""
    # An mpf is held as (sign, mantissa, exponent, bit count).
    (xs, xm, xe, _), (ys, ym, ye, _) = z.real._mpf_, z.imag._mpf_
    f = -min(xe, ye)
    return (-xm if xs else xm) << (xe + f), (-ym if ys else ym) << (ye + f), f


def sort_like_find_roots(roots, tol):
    """Roots by real part, then imaginary part, with both members of a
    conjugate pair (w within tol |z| of conj(z)) keyed by the smaller of
    their real parts, so that the member with im < 0 comes first.

    The order find_roots documents, found by a search over all pairs.
    """

    def key(z):
        pair = [w for w in roots if abs(w - mp.conj(z)) <= tol * abs(z)]
        return (min(mp.re(w) for w in pair + [z]), mp.im(z))

    return sorted(roots, key=key)
