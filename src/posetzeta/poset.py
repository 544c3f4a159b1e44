"""Finite posets, chain counting, and explicit barycentric subdivision.

The strict order is stored per element as its down-set: the tuple of
the indices below it, transitively closed at construction time.  Every
walk over "the elements below this one" loops over that row, so each
costs one step per relation; the up-sets are its transposition, built
once on first read.  The closure is taken inside Kahn's topological
sort, which runs from the minimal elements up and merges each element's
direct predecessors latest-closed first, so a predecessor below another
one is skipped whatever order the elements are listed in: a closed
relation list closes in about one step per relation.  The chain-count
dynamic program counts chains by their greatest element.  The
subdivision orders chains by length and then lexicographically, and
builds each length from the one before: a chain's down-set is its
proper sub-chains, which come from its parent's.  All values are
immutable after construction.  Every CSV and JSON document of the
package has one writer, here, in runs of a few thousand items; the pairs
of a poset file and of the subdivide CSV come in label order from one
walk over the elements, each label row's pairs one join.
"""

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count, islice
# json.dumps of a str returns this encoder's output, after per-call set-up.
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

    ``below[i]`` is the tuple of the indices j with element j < element
    i, in no particular order; it is always the full transitive closure.
    ``above`` is its transposition, each row ascending.  Labels are
    unique; a repeated label raises DuplicateLabel.
    """

    __slots__ = ("labels", "below", "_above", "_index")

    def __init__(self, labels, below):
        self.labels = tuple(labels)
        self.below = tuple(map(tuple, below))
        self._above = None
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            dup = Counter(self.labels).most_common(1)[0][0]
            raise DuplicateLabel(f"duplicate element {dup!r}")

    def __len__(self):
        return len(self.labels)

    @property
    def above(self):
        """``above[i]``: the ascending tuple of the indices above i.

        Transposed from ``below`` on first read and kept: only the
        subdivision reads it, to extend each chain at its top.
        """
        if self._above is None:
            rows = [[] for _ in self.labels]
            for j, row in enumerate(self.below):
                for i in row:
                    rows[i].append(j)
            self._above = tuple(map(tuple, rows))
        return self._above

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"unknown element {label!r}") from None

    def less(self, a, b):
        """True iff a < b (labels)."""
        return self.index(a) in self.below[self.index(b)]

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
    upper = [set() for _ in range(n)]
    for a, b in relations:
        i, j = index(a), index(b)
        if i == j:
            raise CycleDetected(f"relation {a!r} < {a!r}")
        direct[j].add(i)
        upper[i].add(j)

    # Kahn's sort from the minimal elements up: an element is popped once
    # all its direct predecessors are closed, so it closes in one pass.
    # pos[i] is the position at which i was popped.  Elements never popped
    # lie on or above a cycle.
    pending = [len(d) for d in direct]
    stack = [i for i in range(n) if not pending[i]]
    below = [()] * n
    pos = [0] * n
    closed = 0
    while stack:
        i = stack.pop()
        pos[i] = closed
        closed += 1
        # A predecessor inside a down-set already taken has its own
        # down-set inside that one, by transitivity.  One below another
        # was closed before it, so taking the latest-closed first skips
        # it: on a closed relation list, in any listing order, all but
        # one predecessor is skipped.
        acc = set()
        for j in sorted(direct[i], key=pos.__getitem__, reverse=True):
            if j not in acc:
                acc.update(below[j])
        acc |= direct[i]
        below[i] = tuple(acc)
        for j in upper[i]:
            pending[j] -= 1
            if not pending[j]:
                stack.append(j)
    if closed != n:
        raise CycleDetected("relations contain a cycle")
    return Poset(labels, below)


def _require_nonempty(p):
    if len(p) == 0:
        raise EmptyPoset("operation requires a nonempty poset")


def strict_chain_vector(p):
    """Counts of strictly increasing sequences of each length.

    ``cur[i]`` counts the chains of the current length with greatest
    element i; one step puts an element above each chain.
    """
    _require_nonempty(p)
    n = len(p)
    cur = [1] * n
    counts = [n]
    while True:
        nxt = [sum(map(cur.__getitem__, row)) for row in p.below]
        s = sum(nxt)
        if s == 0:
            break
        counts.append(s)
        cur = nxt
    return ChainVector(tuple(counts))


def dimension(p):
    """Length of the longest strict chain."""
    _require_nonempty(p)
    # Longest-path DP over the closed relation.  An element below i has
    # a strictly smaller down-set, so rising down-set size is a valid order.
    below = p.below
    height = [0] * len(p)
    for i in sorted(range(len(p)), key=lambda i: len(below[i])):
        height[i] = max((height[j] + 1 for j in below[i]), default=0)
    return max(height)


def weak_chain_count(p, i):
    """Number of weakly increasing sequences of length i (identities allowed).

    Equals the sum of all entries of the i-th power of the reflexive
    adjacency matrix.
    """
    _require_nonempty(p)
    if i < 0:
        raise ValueError("length must be >= 0")
    rows = p.below
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
    Inclusion is transitive, so that tuple of sub-chains is the new
    chain's down-set as it stands.  It has one element per chain of p, so
    a caller can bound its size from ``strict_chain_vector(p)`` before
    building it.
    """
    _require_nonempty(p)
    n = len(p)
    above, names = p.above, p.labels
    labels = list(names)
    # The proper sub-chains of each chain, the one-element chains' first.
    below = [()] * n
    # extend[j][index of c] = index of c + (j,)
    extend = [{} for _ in range(n)]
    # One length: its chains' tops, in index order from ``start``; their
    # down-sets are read from ``below``.  The loops are plain: CPython
    # 3.11 specializes their appends and lookups.
    start, tops = 0, range(n)
    while tops:
        next_tops = []
        for c, top in zip(count(start), tops):
            head = labels[c] + "|"
            sub = below[c]
            for j in above[top]:
                ext = extend[j]
                ext[c] = len(labels)
                labels.append(head + names[j])
                below.append((*sub, c, j, *map(ext.__getitem__, sub)))
                next_tops.append(j)
        start += len(tops)
        tops = next_tops
    return Poset(labels, below)


def simplex_face_poset(num_vertices):
    """Face poset of the full simplex on vertices v1..vn.

    It is the subdivision of the chain v1 < ... < vn.
    """
    if num_vertices < 1:
        raise ValueError("need at least one vertex")
    labels = (f"v{i}" for i in range(1, num_vertices + 1))
    rows = map(range, range(num_vertices))
    return barycentric_subdivision(Poset(labels, rows))


# Items per write: a few thousand keep the writes few and the pieces small.
_CHUNK = 4096


def write_json(out, value, depth=0):
    """Write value, at this nesting depth, with the bytes of json.dump at
    an indent of 2, one write per run, so no list is held whole.

    value is encoded JSON (a str), an object (a dict of such values, in
    key order) or a list: an iterable of runs, each one or more of its
    items joined by the separator of a list at that depth.
    """
    if isinstance(value, str):
        out.write(value)
        return
    if isinstance(value, dict):
        brackets = "{}"
        items = ((encode_basestring_ascii(key) + ": ", item)
                 for key, item in value.items())
    else:
        brackets, items = "[]", (("", run) for run in value)
    lead, pad = brackets[0], "\n" + "  " * depth
    for key, item in items:
        out.write(lead + pad + "  " + key)
        write_json(out, item, depth + 1)
        lead = ","
    out.write(brackets if lead != "," else pad + brackets[1])


def _row_runs(template, width, sep, rows):
    # Runs of _CHUNK rows of `width` cells joined by sep, as the rows are
    # made: each run is one % of the template repeated, with their cells.
    rows = iter(rows)
    while cells := tuple(chain.from_iterable(islice(rows, _CHUNK))):
        yield sep.join([template] * (len(cells) // width)) % cells


def json_list(items):
    """Runs of a ``write_json`` list of encoded items at depth 1."""
    items = iter(items)
    return map(",\n    ".join, iter(lambda: list(islice(items, _CHUNK)), []))


def json_objects(header, rows, depth):
    """Runs of a ``write_json`` list of one object per row at this depth,
    keyed by the header (each key's % doubled in the template): a str cell
    is encoded, any other printed by "%s" (an int, as json prints it)."""
    pad = "\n" + "  " * (depth + 2)
    keys = (encode_basestring_ascii(h).replace("%", "%%") for h in header)
    template = "{" + ",".join(f"{pad}{k}: %s" for k in keys) + pad[:-2] + "}"
    rows = ([encode_basestring_ascii(x) if isinstance(x, str) else x
             for x in row] for row in rows)
    return _row_runs(template, len(header), "," + pad[:-2], rows)


def csv_lines(header, rows):
    """Runs of a CSV document: the header line, then the rows ("%s" of an
    int is str, as csv writes it; a caller quotes a str cell if need be)."""
    line = ",".join(["%s"] * len(header)) + "\n"
    yield line % tuple(header)  # its own write, before any row is made
    yield from _row_runs(line, len(header), "", rows)


def pair_runs(p, texts, head, end, sep):
    """Runs of p's strict pairs (a, b) in label order, _CHUNK to a run.

    ``texts`` lists each label's text, and is only read.  A pair is
    head % text(a), text(b) and end, and pairs are joined by sep.  Labels
    are unique, so label order sorts the pairs.  One walk over the elements
    in label order appends each text to the rows of its down-set, so every
    row comes out in order with no sort and no up-set is built.  The pairs
    of a row share their head, so each run of a row is one join of its
    texts: the row's head, the texts glued by end, sep and the head again,
    then one end.
    """
    labels = p.labels
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rows = [[] for _ in labels]
    for j in order:
        text = texts[j]
        for i in p.below[j]:
            rows[i].append(text)
    parts, room = [], _CHUNK
    for i in order:
        row = rows[i]
        if not row:
            continue
        lead = head % texts[i]
        glue = end + sep + lead
        while len(row) >= room:
            parts.append(f"{lead}{glue.join(row[:room])}{end}")
            yield sep.join(parts)
            row = row[room:]
            parts, room = [], _CHUNK
        if row:
            parts.append(f"{lead}{glue.join(row)}{end}")
            room -= len(row)
    if parts:
        yield sep.join(parts)


def poset_json(p):
    """The poset file document of p as a ``write_json`` value, written
    once: its labels, each encoded once, and its sorted strict pairs."""
    codes = list(map(encode_basestring_ascii, p.labels))
    return {
        "elements": json_list(codes),
        "relations": pair_runs(p, codes, "[\n      %s,\n      ",
                               "\n    ]", ",\n    "),
    }


def write_poset(p, out):
    """Write p to a text stream in the poset file format, ``poset_json``."""
    write_json(out, poset_json(p))


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
