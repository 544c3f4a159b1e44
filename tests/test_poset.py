import io
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

from posetzeta import (
    ChainVector,
    CycleDetected,
    DuplicateLabel,
    EmptyPoset,
    Poset,
    UnknownLabel,
    barycentric_subdivision,
    build_poset,
    dimension,
    euler_characteristic,
    poset_from_dict,
    save_poset,
    simplex_face_poset,
    strict_chain_vector,
    weak_chain_count,
    write_poset,
)
from helpers import (
    FIXED_SEED,
    brute_chains,
    brute_closure,
    brute_strict_chain_counts,
    brute_weak_chain_count,
    csv_document,
    dags,
    dumped_poset,
    poset_to_dict,
    random_posets,
    relation_pairs,
    subdivision_via_relations,
)
from posetzeta.cli import _subdivide_csv, run
from posetzeta.poset import pair_runs, poset_json, write_json


def p6():
    return build_poset(["2", "3", "5", "6"], [("2", "6"), ("3", "6")])


def p30_explicit():
    from posetzeta import build_Pn

    return build_Pn(30)


def chain2():
    return build_poset(["x", "y"], [("x", "y")])


class TestBuildPoset:
    def test_two_chain(self):
        p = chain2()
        assert p.less("x", "y")
        assert not p.less("y", "x")

    def test_transitive_closure(self):
        p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.less("a", "c")

    def test_duplicate_label(self):
        # A repeated label is found before the relations, whose closure
        # would report a cycle in the last two.
        cases = [
            (["a", "a"], []),
            (["a", "a"], [("a", "a")]),
            (["a", "b", "a"], [("a", "b"), ("b", "a")]),
        ]
        for labels, relations in cases:
            with pytest.raises(DuplicateLabel, match="duplicate element 'a'"):
                build_poset(labels, relations)

    def test_unknown_label(self):
        for relation in [("a", "b"), ("b", "a")]:
            with pytest.raises(UnknownLabel, match="unknown element 'b'"):
                build_poset(["a"], [relation])

    def test_cycle(self):
        with pytest.raises(CycleDetected):
            build_poset(["a", "b"], [("a", "b"), ("b", "a")])
        with pytest.raises(CycleDetected):
            build_poset(["a"], [("a", "a")])

    def test_shuffled_closed_chain(self):
        # Every pair of a 60-element chain, the elements and the pairs
        # shuffled: the poset of its cover relations.
        rng = random.Random(FIXED_SEED)
        c = [f"c{i}" for i in range(60)]
        closed = [(a, b) for i, a in enumerate(c) for b in c[i + 1:]]
        labels = rng.sample(c, len(c))
        rng.shuffle(closed)
        p = build_poset(labels, closed)
        q = build_poset(labels, list(zip(c, c[1:])))
        assert (p.labels, p.above) == (q.labels, q.above)
        for i, a in enumerate(p.labels):
            rank = int(a[1:])
            assert p.above[i] == tuple(sorted(map(p.index, c[rank + 1:])))

    @pytest.mark.parametrize("listing", ["bottom-up", "top-down", "shuffled"])
    def test_closure_skips_in_any_listing_order(self, listing):
        # Every pair of a 200-element chain: each element's predecessors
        # are merged latest-closed first, so only the one just below it
        # is merged, whatever order the elements are listed in.
        n = 200
        c = [f"c{i}" for i in range(n)]
        closed = [(a, b) for i, a in enumerate(c) for b in c[i + 1:]]
        labels = {
            "bottom-up": c,
            "top-down": c[::-1],
            "shuffled": random.Random(FIXED_SEED).sample(c, n),
        }[listing]
        updates = 0

        def count(frame, event, arg):
            nonlocal updates
            if event == "c_call" and getattr(arg, "__name__", "") == "update":
                updates += isinstance(getattr(arg, "__self__", None), set)

        old = sys.getprofile()
        sys.setprofile(count)
        try:
            p = build_poset(labels, closed)
        finally:
            sys.setprofile(old)
        assert updates < n
        assert p.above == build_poset(labels, list(zip(c, c[1:]))).above


class TestChainCounts:
    def test_dimension(self):
        assert dimension(build_poset(["p"], [])) == 0
        assert dimension(p6()) == 1
        assert dimension(p30_explicit()) == 2

    def test_strict_chain_vector(self):
        assert strict_chain_vector(p6()).counts == (4, 2)
        assert strict_chain_vector(p30_explicit())[2] == 6
        antichain = build_poset([f"a{i}" for i in range(5)], [])
        assert strict_chain_vector(antichain).counts == (5,)

    def test_weak_chain_count(self):
        point = build_poset(["p"], [])
        assert all(weak_chain_count(point, i) == 1 for i in range(6))
        for i in range(6):
            assert weak_chain_count(chain2(), i) == i + 2
            assert weak_chain_count(chain2(), i) == brute_weak_chain_count(
                chain2(), i
            )
        assert weak_chain_count(p6(), 0) == 4

    def test_euler_characteristic(self):
        assert euler_characteristic(p6()) == 2
        assert euler_characteristic(p30_explicit()) == 4
        assert euler_characteristic(build_poset(["p"], [])) == 1

    def test_empty_poset(self):
        empty = build_poset([], [])
        for op in (dimension, strict_chain_vector, euler_characteristic):
            with pytest.raises(EmptyPoset):
                op(empty)

    def test_chain_vector_validation(self):
        with pytest.raises(ValueError):
            ChainVector(())
        with pytest.raises(ValueError):
            ChainVector((3, 0))

    def test_chain_vector_rejects_non_integers(self):
        for count in (2.5, Fraction(3, 2)):
            with pytest.raises(ValueError):
                ChainVector((count,))

    def test_repeated_relation_pairs(self):
        p = build_poset(["a", "b", "c"], [("a", "b"), ("a", "b"), ("b", "c")])
        assert p.above == ((1, 2), (2,), ())


class TestRandomOracle:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dags())
    def test_closure_vs_brute_force(self, dag):
        labels, relations = dag
        p = build_poset(labels, relations)
        less = brute_closure(relations)
        assert p.labels == tuple(labels)
        assert p.above == tuple(
            tuple(j for j, b in enumerate(labels) if (a, b) in less)
            for a in labels
        )

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dags())
    def test_closed_pairs_give_the_same_poset(self, dag):
        labels, relations = dag
        p = build_poset(labels, relations)
        q = build_poset(labels, sorted(brute_closure(relations)))
        assert (q.labels, q.above) == (p.labels, p.above)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dags())
    def test_rows_are_ascending_index_tuples(self, dag):
        p = build_poset(*dag)
        for q in (p, barycentric_subdivision(p)):
            for row in q.above:
                assert isinstance(row, tuple)
                assert all(type(j) is int for j in row)
                assert all(a < b for a, b in zip(row, row[1:]))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dags())
    def test_chains_and_dimension_vs_brute_force(self, dag):
        p = build_poset(*dag)
        brute = brute_strict_chain_counts(p)
        assert strict_chain_vector(p).counts == brute
        assert dimension(p) == len(brute) - 1
        # The subdivision's elements are the chains, by (length, chain),
        # unless two joined labels collide.
        chains = sorted(brute_chains(p), key=lambda c: (len(c), c))
        joined = tuple("|".join(p.labels[i] for i in c) for c in chains)
        if len(set(joined)) < len(joined):
            with pytest.raises(DuplicateLabel):
                barycentric_subdivision(p)
        else:
            assert barycentric_subdivision(p).labels == joined

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dags())
    def test_dict_pairs_vs_brute_force(self, dag):
        labels, relations = dag
        doc = poset_to_dict(build_poset(labels, relations))
        assert doc["elements"] == labels
        assert doc["relations"] == sorted(map(list, brute_closure(relations)))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dags())
    def test_dict_round_trip(self, dag):
        p = build_poset(*dag)
        q = poset_from_dict(json.loads(json.dumps(poset_to_dict(p))))
        assert (q.labels, q.above) == (p.labels, p.above)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dags())
    def test_down_sets_vs_brute_force(self, dag):
        labels, relations = dag
        p = build_poset(labels, relations)
        less = brute_closure(relations)
        # A subdivision's elements are the chains of p, by (length, chain),
        # and a chain's down-set is its proper sub-chains.
        chains = sorted(brute_chains(p), key=lambda c: (len(c), c))
        joined = ["|".join(p.labels[i] for i in c) for c in chains]
        cases = [(p, lambda a, b: (labels[a], labels[b]) in less)]
        if len(set(joined)) == len(joined):
            cases.append((barycentric_subdivision(p),
                          lambda a, b: set(chains[a]) < set(chains[b])))
        for q, below_oracle in cases:
            n = len(q)
            for i, row in enumerate(q.below):
                assert isinstance(row, tuple) and len(set(row)) == len(row)
                want = {j for j in range(n) if below_oracle(j, i)}
                assert set(row) == want
                assert want == {
                    j for j in range(n) if q.less(q.labels[j], q.labels[i])
                }
            assert q.above == tuple(
                tuple(j for j in range(n) if i in q.below[j])
                for i in range(n)
            )

    def test_strict_counts_vs_brute_force(self):
        for p in random_posets(60):
            assert (
                strict_chain_vector(p).counts == brute_strict_chain_counts(p)
            )

    def test_weak_counts_vs_brute_force(self):
        for p in random_posets(15, max_elements=6):
            for i in range(7):
                assert weak_chain_count(p, i) == brute_weak_chain_count(p, i)


class TestSubdivision:
    def test_two_chain(self):
        sd = barycentric_subdivision(chain2())
        assert set(sd.labels) == {"x", "y", "x|y"}
        assert sd.less("x", "x|y") and sd.less("y", "x|y")
        assert not sd.less("x", "y")

    def test_point(self):
        sd = barycentric_subdivision(build_poset(["p"], []))
        assert len(sd) == 1

    def test_p6(self):
        sd = barycentric_subdivision(p6())
        assert set(sd.labels) == {"2", "3", "5", "6", "2|6", "3|6"}
        assert strict_chain_vector(sd).counts == (6, 4)

    def test_preserves_chi_and_dim(self):
        posets = [p6(), p30_explicit(), simplex_face_poset(3)]
        posets += random_posets(20, seed=7, max_elements=6)
        for p in posets:
            sd = barycentric_subdivision(p)
            assert euler_characteristic(sd) == euler_characteristic(p)
            assert dimension(sd) == dimension(p)

    def test_chain_rows_closed_form(self):
        # The subdivision of an m-element chain: a sub-chain of k elements
        # lies in 2^(m-k) - 1 longer ones, and the relations total
        # 3^m - 2^(m+1) + 1.  Depths the random DAGs do not reach.
        for m in range(1, 12):
            c = [f"c{i}" for i in range(m)]
            sd = barycentric_subdivision(build_poset(c, list(zip(c, c[1:]))))
            assert len(sd) == 2 ** m - 1
            for label, row in zip(sd.labels, sd.above):
                k = label.count("|") + 1
                assert len(row) == 2 ** (m - k) - 1
                assert all(a < b for a, b in zip(row, row[1:]))
            assert sum(map(len, sd.above)) == 3 ** m - 2 ** (m + 1) + 1

    def test_label_collision(self):
        p = build_poset(["a", "b", "a|b"], [("a", "b")])
        with pytest.raises(DuplicateLabel):
            barycentric_subdivision(p)

    def test_matches_relation_route(self):
        posets = [p30_explicit(), simplex_face_poset(3)]
        for p in random_posets(40, max_elements=7):
            posets += [p, barycentric_subdivision(p)]
        for p in posets:
            sd = barycentric_subdivision(p)
            oracle = subdivision_via_relations(p)
            assert sd.labels == oracle.labels
            assert sd.above == oracle.above


class TestJsonFormat:
    def test_round_trip(self):
        doc = poset_to_dict(p6())
        text = json.dumps(doc)
        q = poset_from_dict(json.loads(text))
        assert q.labels == p6().labels
        assert q.above == p6().above

    def test_format_shape(self):
        doc = poset_to_dict(chain2())
        assert doc == {"elements": ["x", "y"], "relations": [["x", "y"]]}


def written(p):
    buf = io.StringIO()
    write_poset(p, buf)
    return buf.getvalue()


class TestWritePoset:
    # write_poset must give the bytes of json.dump(poset_to_dict(p),
    # indent=2), the oracle in helpers.dumped_poset.
    def test_antichain(self):
        p = build_poset(["a", "b", "c"], [])
        assert written(p) == dumped_poset(p)
        assert json.loads(written(p))["relations"] == []

    def test_single_element(self):
        p = build_poset(["p"], [])
        assert written(p) == dumped_poset(p)

    def test_empty(self):
        p = build_poset([], [])
        assert written(p) == dumped_poset(p)

    def test_escaped_labels(self):
        labels = ['q"uote', "back\\slash", "\u00e9t\u00e9", "\u732b", "\ud800"]
        p = build_poset(labels, list(zip(labels, labels[1:])))
        assert written(p) == dumped_poset(p)
        assert json.loads(written(p))["elements"] == labels

    def test_label_order_differs_from_index_order(self):
        p = build_poset(
            ["b", "a", "10", "9"], [("b", "a"), ("b", "10"), ("9", "10")]
        )
        assert written(p) == dumped_poset(p)
        assert json.loads(written(p))["relations"] == [
            ["9", "10"], ["b", "10"], ["b", "a"]
        ]

    @pytest.mark.parametrize("chunk", [1, 2, 4096])
    def test_twice_subdivided_p30(self, chunk, monkeypatch):
        # The poset file and the subdivide CSV, whose pairs come from the
        # same runs, at every chunk size.
        monkeypatch.setattr("posetzeta.poset._CHUNK", chunk)
        p = barycentric_subdivision(barycentric_subdivision(p30_explicit()))
        assert written(p) == dumped_poset(p)
        header = ["kind", "a", "b"]
        rows = [("element", lab, "") for lab in p.labels]
        rows += [("relation", a, b) for a, b in relation_pairs(p)]
        csv = "".join(_subdivide_csv(header, p))
        assert csv == csv_document(header, rows)

    @pytest.mark.parametrize("head, end, sep", [
        ("[\n      %s,\n      ", "\n    ]", ",\n    "),
        ("relation,%s,", "\n", ""),
    ], ids=["json", "csv"])
    def test_pair_runs_only_read_their_texts(self, head, end, sep):
        p = barycentric_subdivision(barycentric_subdivision(p30_explicit()))
        texts = [json.dumps(lab) for lab in p.labels]
        before = list(texts)
        assert "".join(pair_runs(p, texts, head, end, sep))
        assert texts == before

    def test_document_values_read_in_either_order(self, monkeypatch):
        # The pairs drained before the elements are written: no value of
        # the document depends on when another one is read.
        monkeypatch.setattr("posetzeta.poset._CHUNK", 8)
        p = barycentric_subdivision(barycentric_subdivision(p30_explicit()))
        doc = poset_json(p)
        doc["relations"] = list(doc["relations"])
        buf = io.StringIO()
        write_json(buf, doc)
        assert buf.getvalue() == written(p)

    def test_writes_in_chunks(self, monkeypatch):
        monkeypatch.setattr("posetzeta.poset._CHUNK", 8)
        p = barycentric_subdivision(barycentric_subdivision(p30_explicit()))
        writes = []

        class Sink:
            write = writes.append

        write_poset(p, Sink())
        text = "".join(writes)
        assert text == dumped_poset(p)
        # No write holds more than 8 pair blocks, each two labels and
        # their 28 characters of layout and separator.
        block = 2 * max(len(json.dumps(lab)) for lab in p.labels) + 28
        assert max(map(len, writes)) <= 8 * block < len(text) // 10

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dags())
    def test_random_posets(self, dag):
        p = build_poset(*dag)
        for q in (p, barycentric_subdivision(p)):
            assert written(q) == dumped_poset(q)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_subdivide_reads_up_sets_only_to_extend(
        self, fmt, tmp_path, monkeypatch
    ):
        # subdivide --times 2 reads the up-sets of the two posets it
        # subdivides, and not those of the one it writes.
        p = p30_explicit()
        save_poset(p, tmp_path / "p30.json")
        read = []
        up_sets = Poset.above.fget
        monkeypatch.setattr(
            Poset, "above",
            property(lambda q: read.append(len(q)) or up_sets(q)),
        )
        argv = ["subdivide", "--input", str(tmp_path / "p30.json"),
                "--times", "2", "--format", fmt]
        run(argv, out=io.StringIO())
        once = len(barycentric_subdivision(p))
        assert set(read) == {len(p), once}


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: weak_chain_count(chain2(), -1), ValueError, "length must"),
        (lambda: simplex_face_poset(0), ValueError, "at least one vertex"),
        (lambda: chain2().index("z"), UnknownLabel, "unknown element 'z'"),
    ],
    ids=["weak_chain_count", "simplex_face_poset", "Poset.index"],
)
def test_argument_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_simplex_face_poset():
    p = simplex_face_poset(3)
    assert len(p) == 7
    assert dimension(p) == 2
    assert euler_characteristic(p) == 1
    for n in range(1, 6):
        p = simplex_face_poset(n)
        assert len(p) == 2**n - 1
        for a in p.labels:
            for b in p.labels:
                assert p.less(a, b) == (set(a.split("|")) < set(b.split("|")))
    # The chain v1 < ... < vn through the input builder, subdivided.
    for n in range(1, 8):
        verts = [f"v{i}" for i in range(1, n + 1)]
        chain = build_poset(verts, zip(verts, verts[1:]))
        want = barycentric_subdivision(chain)
        got = simplex_face_poset(n)
        assert (got.labels, got.above) == (want.labels, want.above), n
