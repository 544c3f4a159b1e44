"""Finite posets, chain counting, and explicit barycentric subdivision.

The strict order is stored per element as its up-set: the ascending
tuple of the indices above it, transitively closed at construction time.
Every walk over "the elements above this one" loops over that row, so
each costs one step per relation.  The closure is taken inside Kahn's
topological sort, which runs from the maximal elements down, and skips
a successor that an up-set already gathered contains, so a closed
relation list closes in about one step per relation.  The chain-count
dynamic program counts chains by their least element.  The subdivision
orders chains by length and then lexicographically, and builds each
length from the one before: a chain's sub-chains come from its
parent's.  All values are immutable after construction.  A poset file
has one writer, ``write_poset``, which lays the document out as
``json.dump(..., indent=2)`` would, in chunks, with each up-set sorted
by label rank.
"""

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count, islice
from json.encoder import encode_basestring_ascii

from .errors import (
    CycleDetected,
    DuplicateLabel,
    EmptyPoset,
    InvalidConfig,
    UnknownLabel,
)


class Poset:
    """Finite strict partial order over labeled elements.

    ``above[i]`` is the ascending tuple of the indices j with element
    i < element j; it is always the full transitive closure.  Labels are
    unique; a repeated label raises DuplicateLabel.
    """

    __slots__ = ("labels", "above", "_index")

    def __init__(self, labels, above):
        self.labels = tuple(labels)
        self.above = tuple(map(tuple, above))
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            dup = Counter(self.labels).most_common(1)[0][0]
            raise DuplicateLabel(f"duplicate element {dup!r}")

    def __len__(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"unknown element {label!r}") from None

    def less(self, a, b):
        """True iff a < b (labels)."""
        return self.index(b) in self.above[self.index(a)]

    def __repr__(self):
        return f"Poset({len(self)} elements)"


@dataclass(frozen=True)
class ChainVector:
    """Strict chain counts (N0, ..., Nd); index = chain length."""

    counts: tuple

    def __post_init__(self):
        if not self.counts:
            raise ValueError("empty chain vector")
        if not all(isinstance(c, int) for c in self.counts):
            raise ValueError("chain counts must be integers")
        if any(c < 1 for c in self.counts):
            raise ValueError("chain counts must be positive")
        object.__setattr__(self, "counts", tuple(self.counts))

    @property
    def dim(self):
        return len(self.counts) - 1

    def __getitem__(self, i):
        return self.counts[i]

    def __len__(self):
        return len(self.counts)


def chain_vector(x):
    """x if it is a ChainVector, else the strict chain vector of poset x."""
    return x if isinstance(x, ChainVector) else strict_chain_vector(x)


def build_poset(labels, relations):
    """Construct a poset from generating pairs (a, b) meaning a < b.

    A repeated label raises DuplicateLabel before any relation is read.
    The closure is taken; any cycle (even a pair (a, a)) raises CycleDetected.
    """
    labels = list(labels)
    index = Poset(labels, ()).index  # checks and looks up the labels
    n = len(labels)
    direct = [set() for _ in range(n)]
    lower = [set() for _ in range(n)]
    for a, b in relations:
        i, j = index(a), index(b)
        if i == j:
            raise CycleDetected(f"relation {a!r} < {a!r}")
        direct[i].add(j)
        lower[j].add(i)

    # Kahn's sort from the maximal elements down: an element is popped
    # once all its direct successors are closed, so it closes in one pass.
    # Elements never popped lie on or below a cycle.
    pending = [len(d) for d in direct]
    stack = [i for i in range(n) if not pending[i]]
    above = [()] * n
    closed = 0
    while stack:
        i = stack.pop()
        closed += 1
        # A successor inside an up-set already taken has its own up-set
        # inside that one, by transitivity: on a closed relation list
        # most successors are skipped.
        acc = set()
        for j in direct[i]:
            if j not in acc:
                acc.update(above[j])
        acc |= direct[i]
        above[i] = sorted(acc)
        for j in lower[i]:
            pending[j] -= 1
            if not pending[j]:
                stack.append(j)
    if closed != n:
        raise CycleDetected("relations contain a cycle")
    return Poset(labels, above)


def _require_nonempty(p):
    if len(p) == 0:
        raise EmptyPoset("operation requires a nonempty poset")


def strict_chain_vector(p):
    """Counts of strictly increasing sequences of each length.

    ``cur[i]`` counts the chains of the current length with least
    element i; one step puts an element below each chain.
    """
    _require_nonempty(p)
    n = len(p)
    cur = [1] * n
    counts = [n]
    while True:
        nxt = [sum(map(cur.__getitem__, row)) for row in p.above]
        s = sum(nxt)
        if s == 0:
            break
        counts.append(s)
        cur = nxt
    return ChainVector(tuple(counts))


def dimension(p):
    """Length of the longest strict chain."""
    _require_nonempty(p)
    # Longest-path DP over the closed relation.  An element above i has
    # a strictly smaller up-set, so rising up-set size is a valid order.
    above = p.above
    height = [0] * len(p)
    for i in sorted(range(len(p)), key=lambda i: len(above[i])):
        height[i] = max((height[j] + 1 for j in above[i]), default=0)
    return max(height)


def weak_chain_count(p, i):
    """Number of weakly increasing sequences of length i (identities allowed).

    Equals the sum of all entries of the i-th power of the reflexive
    adjacency matrix.
    """
    _require_nonempty(p)
    if i < 0:
        raise ValueError("length must be >= 0")
    rows = p.above
    w = [1] * len(p)
    for _ in range(i):
        w = [w[a] + sum(map(w.__getitem__, row)) for a, row in enumerate(rows)]
    return sum(w)


def euler_characteristic(p):
    """Alternating sum of the strict chain counts of p or its ChainVector."""
    return sum((-1) ** i * c for i, c in enumerate(chain_vector(p).counts))


def barycentric_subdivision(p):
    """Poset of all nonempty chains of p, ordered by strict inclusion.

    Chain elements are labeled by joining the original labels along the
    chain with "|", which makes iterated subdivision deterministic; joined
    labels that collide raise DuplicateLabel.  Chains are indexed by
    (length, chain), and each length is built from the one before: the
    proper sub-chains of c + (j,) are those of c, c itself, (j,), and
    s + (j,) for each proper sub-chain s of c, read from a map, one per
    top j, of each chain's index to that of the chain extended by j.
    Inclusion is transitive, so each chain's index goes straight into
    the rows of its proper sub-chains; chains are made in index order,
    so every row comes out ascending.  It has one element per chain of
    p, so a caller can bound its size from ``strict_chain_vector(p)``
    before building it.
    """
    _require_nonempty(p)
    n = len(p)
    labels = list(p.labels)
    above = [[] for _ in range(n)]
    # extend[j][index of c] = index of c + (j,)
    extend = [{} for _ in range(n)]
    # One length: its chains' tops and proper sub-chains, in index order
    # from ``start``; only this length and the next are held.  The loops
    # are plain: CPython 3.11 specializes their appends and lookups, and
    # map() over bound methods measured slower.
    start, tops, subs = 0, range(n), [[]] * n
    while tops:
        next_tops, next_subs = [], []
        for c, top, sub in zip(count(start), tops, subs):
            head = labels[c] + "|"
            for j in p.above[top]:
                x = len(labels)
                ext = extend[j]
                ext[c] = x
                labels.append(head + p.labels[j])
                above.append([])
                new = sub + [c, j]
                above[c].append(x)
                above[j].append(x)
                for s in sub:
                    e = ext[s]
                    new.append(e)
                    above[s].append(x)
                    above[e].append(x)
                next_tops.append(j)
                next_subs.append(new)
        start += len(tops)
        tops, subs = next_tops, next_subs
    return Poset(labels, above)


def simplex_face_poset(num_vertices):
    """Face poset of the full simplex on vertices v1..vn.

    It is the subdivision of the chain v1 < ... < vn.
    """
    if num_vertices < 1:
        raise ValueError("need at least one vertex")
    labels = (f"v{i}" for i in range(1, num_vertices + 1))
    rows = (range(i + 1, num_vertices) for i in range(num_vertices))
    return barycentric_subdivision(Poset(labels, rows))


def _label_rows(p):
    """Each element's up-set in the file's pair order.

    Yields (i, js) for the elements i in label order, with js the indices
    above i, also in label order.  Labels are unique, so this is the order
    of sorting the pairs [a, b] themselves; the labels are ranked once,
    and the rows are sorted by rank, so no string is compared again.
    """
    labels = p.labels
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rank = [0] * len(labels)
    for r, i in enumerate(order):
        rank[i] = r
    for i in order:
        yield i, sorted(p.above[i], key=rank.__getitem__)


# Items per write: a few thousand keep the writes few and the pieces small.
_CHUNK = 4096


def _write_list(out, items, depth):
    # A list of encoded items as json.dump(indent=2) lays it out at this
    # depth, written one chunk at a time.
    items = iter(items)
    chunk = list(islice(items, _CHUNK))
    if not chunk:
        out.write("[]")
        return
    sep = ",\n" + "  " * (depth + 1)
    out.write("[" + sep[1:])
    while True:
        out.write(sep.join(chunk))
        chunk = list(islice(items, _CHUNK))
        if not chunk:
            break
        out.write(sep)
    out.write("\n" + "  " * depth + "]")


def write_poset(p, out):
    """Write p to a text stream in the poset file format.

    The bytes are those of ``json.dump(..., indent=2)`` of the labels and
    the sorted strict pairs [a, b], written in chunks without building
    that document: each label is encoded once, and after the elements
    each code takes on the end of a pair, so a pair is one head per row
    and one concatenation.
    """
    # json.dumps of a str, under default settings, returns this C
    # encoder's output, so the bytes are the same without its per-call
    # set-up.
    enc = list(map(encode_basestring_ascii, p.labels))
    out.write('{\n  "elements": ')
    _write_list(out, enc, 1)
    out.write(',\n  "relations": ')
    # Each code now ends a pair; the bare codes are not kept.
    enc = [code + _PAIR_END for code in enc]
    _write_list(out, _pair_blocks(p, enc), 1)
    out.write("\n}")


_PAIR_END = "\n    ]"


def _pair_blocks(p, ends):
    # Each pair [a, b] as json.dump(indent=2) lays it out in the
    # relations; ends[i] is the code of label i with the pair's end.
    cut = -len(_PAIR_END)
    for i, js in _label_rows(p):
        head = "[\n      " + ends[i][:cut] + ",\n      "
        for j in js:
            yield head + ends[j]


def _is_string_list(value):
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def poset_from_dict(data):
    """Poset from a document in the file format, checked before building.

    A document that is not an object with a list of string "elements",
    each Unicode text (no lone surrogate), and a list of [a, b] string
    "relations" raises InvalidConfig, and one with no elements raises
    EmptyPoset.
    """
    if not isinstance(data, dict):
        raise InvalidConfig("poset document must be a JSON object")
    elements = data.get("elements")
    relations = data.get("relations")
    if not _is_string_list(elements):
        raise InvalidConfig('"elements" must be a list of strings')
    # A JSON escape such as \ud800 decodes to a lone surrogate, which no
    # output can encode: checked in bulk, by one encode of every label.
    try:
        "".join(elements).encode()
    except UnicodeEncodeError:
        raise InvalidConfig('"elements" must be Unicode text') from None
    # Checked in bulk, by the sets of types and lengths that occur: a
    # saved poset lists every relation of its closure.
    if not (
        isinstance(relations, list)
        and set(map(type, relations)) <= {list}
        and set(map(len, relations)) <= {2}
        and set(map(type, chain.from_iterable(relations))) <= {str}
    ):
        raise InvalidConfig('"relations" must be a list of string pairs')
    if not elements:
        raise EmptyPoset("poset document has no elements")
    return build_poset(elements, relations)


def load_poset(path):
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or a too-long integer
            raise InvalidConfig(f"{path}: {exc}") from None
        except RecursionError:
            raise InvalidConfig(f"{path}: JSON nested too deeply") from None
    return poset_from_dict(data)


def save_poset(p, path):
    with open(path, "w", encoding="utf-8") as fh:
        write_poset(p, fh)
        fh.write("\n")
