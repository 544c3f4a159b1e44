"""Output checks, each against a route independent of the one under test.

``Checker.check(op, text)`` returns None when the CLI output of `op` is
right and a one-line reason when it is not.  Checks run outside the
timed section and with tracing off.
"""

import csv
import io
import json
from fractions import Fraction
from math import comb, factorial

import mpmath as mp

from posetzeta.poset import (
    ChainVector,
    poset_from_dict,
    strict_chain_vector,
    weak_chain_count,
)
from posetzeta.polynomial import (
    ExactPolynomial,
    ExactRationalFunction,
    residue_at_infinity,
    series_expand,
)
from posetzeta.primes import build_Pn
from posetzeta.roots import g_k_polynomial
from posetzeta.subdivision import transfer_iterate

from .workloads import euler_characteristic, f_number

SERIES_TERMS = 12
BACKWARD_ERROR_TOL = mp.mpf("1e-15")
ES_RATIO_TOL = 0.01  # criterion 9: |es_ratio_final| within 0.01 of 1
MATCH_TOL = 2e-3  # criterion 9: final match distance below 2e-3
TOP_CHAIN_CHECK_MAX = 5000


def _csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _primorial_dim(n):
    """Largest d whose (d+1)-st primorial is at most n."""
    d, q, p = -1, 1, 2
    while q * p <= n:
        q *= p
        d += 1
        p += 1
        while any(p % r == 0 for r in range(2, int(p ** 0.5) + 1)):
            p += 1
    return d


class Checker:
    """Judges the outputs of one pass; keeps its own number tables."""

    def __init__(self):
        self._mu = [0, 1]
        self._omega = [0, 0]
        self._mertens = [0, 1]
        self._F = {}
        self._chains = None

    def check(self, op, text):
        # Output that makes a check raise is wrong output, not a crash of
        # the benchmark: report it as this operation's failure.
        try:
            return getattr(self, "_" + op.check)(op, text)
        except Exception as exc:  # noqa: BLE001
            return f"check raised {type(exc).__name__}: {exc}"

    # -- number tables of the benchmark's own

    def _sieve(self, n):
        if n < len(self._mu):
            return
        n = max(n, 2 * len(self._mu))
        mu = [1] * (n + 1)
        omega = [0] * (n + 1)
        mu[0] = 0
        for p in range(2, n + 1):
            if omega[p]:
                continue
            for m in range(p, n + 1, p):
                omega[m] += 1
                mu[m] = -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
        acc = 0
        mertens = []
        for v in mu:
            acc += v
            mertens.append(acc)
        self._mu, self._omega, self._mertens = mu, omega, mertens

    def big_F(self, i, d):
        """F_{i,d} from the eigenvector equation of the f-matrix."""
        if i == d:
            return Fraction(1)
        key = (i, d)
        if key not in self._F:
            total = sum(
                f_number(i, j) * self.big_F(j, d) for j in range(i + 1, d + 1)
            )
            self._F[key] = Fraction(total, factorial(d + 1) - factorial(i + 1))
        return self._F[key]

    def h_vector(self, d):
        """Coefficients of F_d(s - 1), F_d having s^(d-i) coefficient F_{i,d}."""
        if d == 0:
            return [Fraction(0), Fraction(1)]
        c = [self.big_F(d - e, d) if e <= d else 0 for e in range(d + 2)]
        return [
            sum(c[e] * comb(e, k) * (-1) ** (e - k) for e in range(k, d + 2))
            for k in range(d + 2)
        ]

    def _top_chains(self, n):
        """Strict chains of length dim(P_n) in P_n, by a prefix DP."""
        if self._chains is None:
            hi = TOP_CHAIN_CHECK_MAX
            self._sieve(hi)
            squarefree = {k for k in range(2, hi + 1) if self._mu[k]}
            # levels[L][k]: chains of length L ending at k.
            levels = [dict.fromkeys(squarefree, 1)]
            while levels[-1]:
                nxt = {}
                for k, count in levels[-1].items():
                    for m in range(2 * k, hi + 1, k):
                        if m in squarefree:
                            nxt[m] = nxt.get(m, 0) + count
                levels.append(nxt)
            self._chains = levels
        level = self._chains[_primorial_dim(n)]
        return sum(c for k, c in level.items() if k <= n)

    # -- checkers, one per operation kind

    def _zeta(self, op, text):
        header, rows = _csv(text)
        if header != ["part", "exponent", "coefficient"]:
            return f"bad header {header}"
        parts = {"numerator": [], "denominator": []}
        for part, exponent, coeff in rows:
            if int(exponent) != len(parts[part]):
                return "exponents out of order"
            parts[part].append(Fraction(coeff))
        z = ExactRationalFunction(
            ExactPolynomial(parts["numerator"]),
            ExactPolynomial(parts["denominator"]),
        )
        counts = op.info["counts"]
        if z.denominator.degree != len(counts):
            return f"denominator degree {z.denominator.degree}, d+1 = {len(counts)}"
        p = poset_from_dict(op.info["doc"])
        series = series_expand(z, SERIES_TERMS)
        weak = [weak_chain_count(p, i) for i in range(SERIES_TERMS + 1)]
        if series != weak:
            return "series differs from the weak chain counts"
        if residue_at_infinity(z) != euler_characteristic(counts):
            return "residue at infinity differs from chi"
        return None

    def _tables(self, op, text):
        header, rows = _csv(text)
        if header != ["i", "d", "value"]:
            return f"bad header {header}"
        dmax = op.info["dmax"]
        got = {(int(i), int(d)): Fraction(v) for i, d, v in rows}
        kind = op.info["kind"]
        if kind == "f":
            keys = [(i, d) for i in range(dmax + 1) for d in range(dmax + 1)]
            want = {k: f_number(*k) for k in keys}
        elif kind == "F":
            keys = [(i, d) for d in range(dmax + 1) for i in range(d + 1)]
            want = {k: self.big_F(*k) for k in keys}
        else:
            want = {
                (i, d): h
                for d in range(dmax + 1)
                for i, h in enumerate(self.h_vector(d))
            }
        if len(rows) != len(want) or got != want:
            bad = sorted(k for k in want if got.get(k) != want[k])
            return f"{kind} table differs at {bad[:3]} (rows {len(rows)})"
        return None

    def _subdivide(self, op, text):
        # The output lists every strict pair, so chains follow the pairs
        # directly; a missing or extra pair changes the counts.
        doc = json.loads(text)
        index = {lab: i for i, lab in enumerate(doc["elements"])}
        if len(index) != len(doc["elements"]):
            return "duplicate elements"
        pairs = [(index[a], index[b]) for a, b in doc["relations"]]
        cur = [1] * len(index)
        counts = [len(index)]
        while len(counts) <= len(index):
            nxt = [0] * len(index)
            for a, b in pairs:
                nxt[b] += cur[a]
            if not any(nxt):
                break
            counts.append(sum(nxt))
            cur = nxt
        want = transfer_iterate(
            ChainVector(tuple(op.info["counts"])), op.info["times"]
        )
        if tuple(counts) != want.counts:
            return f"chain vector {counts} differs from transfer_iterate"
        return None

    def _roots(self, op, text):
        doc = json.loads(text)
        rows = doc["rows"]
        kmax = op.info["kmax"]
        if [r["k"] for r in rows] != list(range(kmax + 1)):
            return "rows do not cover k = 0..kmax"
        p = poset_from_dict(op.info["doc"])
        with mp.workdps(80):
            for r in rows:
                if r["precision_bits"] != 256:
                    return f"precision_bits {r['precision_bits']}"
                coeffs = [
                    mp.mpf(c.numerator) / c.denominator
                    for c in g_k_polynomial(p, r["k"]).coeffs
                ]
                beta = mp.mpc(mp.mpf(r["beta1_re"]), mp.mpf(r["beta1_im"]))
                value = mp.polyval(coeffs[::-1], beta)
                scale = sum(abs(c) * abs(beta) ** i for i, c in enumerate(coeffs))
                if abs(value) > BACKWARD_ERROR_TOL * scale:
                    return f"beta1 at k={r['k']} is not a root of g_k"
        if len(op.info["counts"]) - 1 <= 4:
            es = abs(mp.mpf(doc["es_ratio_final"]))
            if abs(es - 1) > ES_RATIO_TOL:
                return f"|es_ratio_final| = {mp.nstr(es, 6)}"
            dist = mp.mpf(doc["max_match_distance_final"])
            if not dist < MATCH_TOL:
                return f"final match distance {mp.nstr(dist, 6)}"
        return None

    def _pn_alpha(self, op, text):
        header, rows = _csv(text)
        if header != ["n", "chi", "mertens", "dim", "top_chains", "H1", "alpha"]:
            return f"bad header {header}"
        lo, hi = map(int, op.argv[-1].split(":"))
        if [int(r[0]) for r in rows] != list(range(lo, hi + 1)):
            return "rows do not cover the range"
        self._sieve(hi)
        for n, chi, mert, dim, top, h1, alpha in rows:
            n, chi, top = int(n), int(chi), int(top)
            d = _primorial_dim(n)
            if int(mert) != self._mertens[n] or chi != 1 - self._mertens[n]:
                return f"chi or mertens wrong at n={n}"
            if int(dim) != d or Fraction(h1) != self.h_vector(d)[1]:
                return f"dim or H1 wrong at n={n}"
            want = "NA" if chi == 0 else Fraction(Fraction(h1) * top, chi)
            if (alpha if chi == 0 else Fraction(alpha)) != want:
                return f"alpha != H1*top/chi at n={n}"
            if n <= TOP_CHAIN_CHECK_MAX and top != self._top_chains(n):
                return f"top_chains wrong at n={n}"
        if hi <= TOP_CHAIN_CHECK_MAX:
            cv = strict_chain_vector(build_Pn(hi))
            if cv[len(cv) - 1] != int(rows[-1][4]):
                return f"top_chains differs from strict_chain_vector at n={hi}"
        return None

    def _pn_chi(self, op, text):
        header, rows = _csv(text)
        if header != ["n", "chi"]:
            return f"bad header {header}"
        lo, hi = map(int, op.argv[-1].split(":"))
        if [int(r[0]) for r in rows] != list(range(lo, hi + 1)):
            return "rows do not cover the range"
        self._sieve(hi)
        for n, chi in rows:
            if int(chi) != 1 - self._mertens[int(n)]:
                return f"chi != 1 - M(n) at n={n}"
        return None

    def _pi_weight(self, op, text):
        header, rows = _csv(text)
        d, x = int(op.argv[2]), int(op.argv[4])
        self._sieve(x)
        want = sum(
            1 for k in range(2, x + 1) if self._mu[k] and self._omega[k] == d
        )
        if header != ["d", "x", "count"] or rows != [[str(d), str(x), str(want)]]:
            return f"pi-weight output {rows}, want count {want}"
        return None
