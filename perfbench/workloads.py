"""Seeded inputs and operation lists for the benchmark workloads.

Every input is generated here from the seed, without calling posetzeta,
and written as a poset JSON file; the program only ever sees those files.
Random posets are resampled until their size, dimension d and strict
chain vector fall in the band of their workload, because cost grows
steeply with all three: without a band one 80-element DAG made
``subdivide`` run for 65 s.  The same seed always gives the same inputs.

Workloads (one client, closed loop, operations in list order):

zeta
    ``zeta --input`` on P_n (n in 23..30), on random DAGs of 10..16
    elements (d 2..5, chain-vector sum 3|P|..12|P|) and on the face
    posets of the 2- and 3-simplex, plus ``tables --dmax 40`` for f, F
    and H.  Nearly all time is in the determinant route.
subdivide
    ``subdivide --times 1|2`` on P_n and on random DAGs (d 2..3) whose
    subdivision has 6*10^3..6.2*10^4 strict pairs and about 10^3..1.2*10^4
    elements.
roots
    ``theorem-check --kmax 8 --precision-bits 256`` on random posets with
    chi != 0: two each of d = 2 and 3, four of d = 4 and five of d = 5,
    with a chain-sum band per d and at least three top chains (with one
    or two, a d = 2 poset's bounded root has not yet met the 2e-3
    matching tolerance at k = 8).  Every d = 5 operation fails with
    NoConvergence at this writing.
pn
    ``pn alpha`` over [6, 1505] in 30 chunks of about equal cost, five
    one-off ``pn alpha --range N:N`` with N near 10^5, ``pn chi --range
    2:X`` and ``pi-weight``.
"""

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, sqrt

WORKLOADS = ("zeta", "subdivide", "roots", "pn")


@dataclass
class Op:
    """One CLI call: its argv, the checker that judges it, and its data."""

    label: str
    argv: list
    check: str
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------- posets


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def chain_vector(above):
    """Strict chain counts (N_0, ..., N_d) of a closed bitmask order."""
    n = len(above)
    below = [0] * n
    for i, mask in enumerate(above):
        for j in _bits(mask):
            below[j] |= 1 << i
    cur = [1] * n
    counts = [n]
    while True:
        cur = [sum(cur[i] for i in _bits(below[j])) for j in range(n)]
        total = sum(cur)
        if not total:
            return counts
        counts.append(total)


def euler_characteristic(counts):
    return sum((-1) ** i * c for i, c in enumerate(counts))


def f_number(i, d):
    """Chains of length i ending at a fixed d-chain: (i+1)! S(d+1, i+1)."""
    if i < 0 or i > d:
        return int(i == d == -1)
    # Surjections of d + 1 points onto i + 1 blocks, by inclusion-exclusion.
    k = i + 1
    return sum(
        (-1) ** (k - j) * comb(k, j) * j ** (d + 1) for j in range(k + 1)
    )


def transfer(counts, times):
    """Chain vector after `times` barycentric subdivisions."""
    d = len(counts) - 1
    for _ in range(times):
        counts = [
            sum(f_number(i, j) * counts[j] for j in range(i, d + 1))
            for i in range(d + 1)
        ]
    return counts


def _doc(labels, relations, rng):
    elements = list(labels)
    rels = [list(r) for r in relations]
    if rng is not None:
        rng.shuffle(elements)
        rng.shuffle(rels)
    return {"elements": elements, "relations": rels}


def _closure(size, edges):
    """Bitmask order generated by `edges`, given in a topological order."""
    succ = [0] * size
    for i, j in edges:
        succ[i] |= 1 << j
    above = [0] * size
    for i in reversed(range(size)):
        acc = succ[i]
        for j in _bits(succ[i]):
            acc |= above[j]
        above[i] = acc
    return above


def banded_dag(rng, size, dims, band, measure=sum, accept=None):
    """Random DAG on `size` elements with d in `dims` and measure in `band`.

    Elements get random levels in 0..dims[1], and edges go from lower to
    higher levels, which caps d.  The edges are shuffled, and the shortest
    prefix whose chain-vector measure reaches a random target in the band
    is taken (the measure only grows with the prefix).  Draws that miss
    the band or the lower dimension, or that `accept(counts)` rejects, are
    redrawn.  Returns (poset document, chain vector).
    """
    for _ in range(1000):
        target = rng.randint(*band)
        level = sorted(rng.randint(0, dims[1]) for _ in range(size))
        pairs = [
            (i, j)
            for i in range(size)
            for j in range(i + 1, size)
            if level[i] < level[j]
        ]
        rng.shuffle(pairs)
        lo, hi = 0, len(pairs)
        while lo < hi:
            mid = (lo + hi) // 2
            if measure(chain_vector(_closure(size, pairs[:mid]))) >= target:
                hi = mid
            else:
                lo = mid + 1
        edges = pairs[:lo]
        counts = chain_vector(_closure(size, edges))
        if (
            band[0] <= measure(counts) <= band[1]
            and len(counts) - 1 >= dims[0]
            and (accept is None or accept(counts))
        ):
            names = [f"a{k}" for k in rng.sample(range(size), size)]
            rels = [(names[a], names[b]) for a, b in edges]
            return _doc(names, rels, rng), counts
    raise RuntimeError(f"no DAG of size {size} in band {dims}, {band}")


def _factors(k):
    out = []
    p = 2
    while p * p <= k:
        if k % p == 0:
            out.append(p)
            k //= p
            if k % p == 0:
                return None
        p += 1
    if k > 1:
        out.append(k)
    return out


def pn_doc(n):
    """P_n: squarefree integers in [2, n] ordered by divisibility."""
    labels = []
    relations = []
    for k in range(2, n + 1):
        facs = _factors(k)
        if facs is None:
            continue
        labels.append(str(k))
        for r in range(1, len(facs)):
            for sub in combinations(facs, r):
                div = 1
                for p in sub:
                    div *= p
                relations.append((str(div), str(k)))
    return _doc(labels, relations, None)


def simplex_doc(num_vertices):
    """Face poset of the simplex on `num_vertices` vertices."""
    verts = [f"v{i}" for i in range(1, num_vertices + 1)]
    labels = []
    relations = []
    for k in range(1, num_vertices + 1):
        for face in combinations(verts, k):
            labels.append("|".join(face))
            for j in range(1, k):
                for sub in combinations(face, j):
                    relations.append(("|".join(sub), "|".join(face)))
    return _doc(labels, relations, None)


def doc_chain_vector(doc):
    """Chain vector of a poset document, by this module's own closure."""
    index = {lab: i for i, lab in enumerate(doc["elements"])}
    n = len(index)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in doc["relations"]:
        succ[index[a]].append(index[b])
        indeg[index[b]] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    for i in order:
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    above = [0] * n
    for i in reversed(order):
        for j in succ[i]:
            above[i] |= (1 << j) | above[j]
    return chain_vector(above)


# ---------------------------------------------------------- workloads


def _subdivided_relations(times):
    """Strict pairs of the `times`-fold subdivision: each chain of the
    (times-1)-fold one lies above its 2^(i+1) - 2 proper sub-chains."""
    return lambda counts: sum(
        c * (2 ** (i + 1) - 2) for i, c in enumerate(transfer(counts, times - 1))
    )


def _zeta_ops(rng, scale):
    if scale == "tiny":
        specs = [("pn", 12), ("dag", 6), ("simplex", 3)]
        dmax = 6
    else:
        # P_23 = P_24 = P_25 and P_26 = P_27 = P_28, so the seed picks n
        # without changing the cost.  Sorted by cost, the list has seven
        # cheaper operations, five P_23..25 in the middle and seven dearer
        # ones with three P_26..28 at the tail percentile, so neither
        # percentile rests on a single operation or on a random DAG.
        specs = (
            [("pn", rng.choice((23, 24, 25))) for _ in range(5)]
            + [("pn", rng.choice((26, 27, 28))) for _ in range(3)]
            + [("pn", 30), ("simplex", 3), ("simplex", 4)]
            + [("dag", m) for m in (10, 11, 12, 15, 16)]
        )
        dmax = 40
    ops = []
    for kind, size in specs:
        if kind == "pn":
            doc, counts = pn_doc(size), None
        elif kind == "simplex":
            doc, counts = simplex_doc(size), None
        else:
            doc, counts = banded_dag(rng, size, (2, 5), (3 * size, 12 * size))
        if counts is None:
            counts = doc_chain_vector(doc)
        ops.append(
            Op(
                f"zeta:{kind}{size}",
                ["zeta", "--input", None],
                "zeta",
                {"doc": doc, "counts": counts},
            )
        )
    rng.shuffle(ops)
    # The tables share the f/F memo, so their relative order is fixed.
    slots = sorted(rng.sample(range(len(ops) + 3), 3))
    for slot, kind in zip(slots, "fFH"):
        ops.insert(
            slot,
            Op(
                f"tables:{kind}",
                ["tables", "--kind", kind, "--dmax", str(dmax)],
                "tables",
                {"kind": kind, "dmax": dmax},
            ),
        )
    return ops


def _subdivide_ops(rng, scale):
    # (kind, P_n bound or DAG size, band on the output's strict pairs, times)
    # The pair count sets both the time and the memory of an operation.
    # The largest DAG bands stay below P_2310 (61,364 pairs), and P_n runs
    # first, so the memory peak is P_n's whatever the seed.  Sorted by
    # cost, the list has three operations of 26-28k pairs in the middle
    # and four of 42-45k pairs at the tail percentile.
    if scale == "tiny":
        specs = [
            ("pn", rng.randint(30, 40), None, 1),
            ("dag", 6, (300, 600), 2),
        ]
    else:
        specs = [
            ("pn", rng.randint(2310, 2340), None, 1),
            ("pn", rng.randint(1000, 1100), None, 1),
            ("dag", 100, (42_000, 45_000), 1),
            ("dag", 100, (42_000, 45_000), 1),
            ("dag", 100, (42_000, 45_000), 1),
            ("dag", 60, (26_000, 28_000), 1),
            ("dag", 60, (26_000, 28_000), 1),
            ("dag", 40, (8_000, 9_000), 1),
            ("dag", 40, (8_000, 9_000), 1),
            ("dag", 15, (6_000, 7_000), 2),
            ("dag", 20, (26_000, 28_000), 2),
            ("dag", 30, (42_000, 45_000), 2),
        ]
    ops = []
    for kind, size, band, times in specs:
        if kind == "pn":
            doc = pn_doc(size)
            counts = doc_chain_vector(doc)
        else:
            doc, counts = banded_dag(
                rng, size, (2, 3), band, _subdivided_relations(times)
            )
        ops.append(
            Op(
                f"subdivide:{kind}{size}x{times}",
                ["subdivide", "--input", None, "--times", str(times)],
                "subdivide",
                {"doc": doc, "counts": counts, "times": times},
            )
        )
    rest = ops[1:]
    rng.shuffle(rest)
    return ops[:1] + rest


# Per d: (number of posets, element-count range, chain-vector-sum band).
# Sorted by cost, the median falls among the four d = 4 posets and the
# tail percentile on the second of the five d = 5 ones.
ROOTS_BANDS = {
    2: (2, (6, 9), (18, 40)),
    3: (2, (7, 11), (40, 100)),
    4: (4, (9, 13), (100, 180)),
    5: (5, (9, 13), (150, 260)),
}
# With d = 2 and one or two 2-chains the bounded root is still 2e-3 to
# 7e-3 from its limit at k = 8; three or more 2-chains are required.
ROOTS_MIN_TOP = 3


def _roots_accept(counts):
    return euler_characteristic(counts) != 0 and counts[-1] >= ROOTS_MIN_TOP


def _roots_ops(rng, scale):
    bands = ROOTS_BANDS
    if scale == "tiny":
        bands = {2: (1, (6, 9), (18, 40)), 3: (1, (7, 11), (40, 100))}
    ops = []
    for d, (count, sizes, band) in bands.items():
        for _ in range(count):
            doc, counts = banded_dag(
                rng, rng.randint(*sizes), (d, d), band, accept=_roots_accept
            )
            ops.append(
                Op(
                    f"roots:d{d}",
                    [
                        "theorem-check", "--input", None, "--kmax", "8",
                        "--precision-bits", "256", "--format", "json",
                    ],
                    "roots",
                    {"doc": doc, "counts": counts, "kmax": 8},
                )
            )
    rng.shuffle(ops)
    return ops


def _pn_ops(rng, scale):
    if scale == "tiny":
        sweep_hi, chunks, one_offs, chi_hi = 205, 4, [3000], 2000
    else:
        sweep_hi, chunks = 1505, 30
        one_offs = sorted(
            (rng.randint(95_000, 105_000) for _ in range(5)), reverse=True
        )
        chi_hi = rng.randint(90_000, 95_000)  # within the one-offs' sieve
    # A row of `pn alpha` costs about n, so chunk k of the sweep ends near
    # sqrt(k / chunks) * sweep_hi and every chunk costs about the same; the
    # median operation is then one of many like chunks.
    ends = [
        round(sqrt(36 + k * (sweep_hi ** 2 - 36) / chunks))
        for k in range(chunks + 1)
    ]
    ops = [
        Op(f"pn:alpha{lo}", ["pn", "alpha", "--range", f"{lo}:{hi - 1}"],
           "pn_alpha")
        for lo, hi in zip(ends, ends[1:-1] + [sweep_hi + 1])
    ]
    # One-off queries land at seeded points of the sweep, largest first,
    # so the sieve is built for them once whatever the seed.
    slots = sorted(rng.sample(range(len(ops) + len(one_offs)), len(one_offs)))
    for slot, n in zip(slots, one_offs):
        ops.insert(slot, Op("pn:alpha-one-off",
                            ["pn", "alpha", "--range", f"{n}:{n}"], "pn_alpha"))
    ops.append(Op("pn:chi", ["pn", "chi", "--range", f"2:{chi_hi}"], "pn_chi"))
    d, x = rng.choice((2, 3, 4)), rng.randint(chi_hi // 2, chi_hi)
    ops.append(
        Op("pi-weight", ["pi-weight", "--d", str(d), "--x", str(x)], "pi_weight")
    )
    return ops


_BUILDERS = {
    "zeta": _zeta_ops,
    "subdivide": _subdivide_ops,
    "roots": _roots_ops,
    "pn": _pn_ops,
}


def make_ops(workload, seed, workdir, scale="full"):
    """Generate the workload's inputs from `seed` into `workdir`.

    Poset inputs are written as JSON files and their paths filled into
    the argv.  Returns the operation list.
    """
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, scale)
    workdir.mkdir(parents=True, exist_ok=True)
    for k, op in enumerate(ops):
        if None in op.argv:
            path = workdir / f"input{k:02d}.json"
            doc = op.info.get("doc")
            if doc is None:
                raise RuntimeError(f"{op.label} has no input document")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            op.argv[op.argv.index(None)] = str(path)
    return ops
