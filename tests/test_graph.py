import itertools

import numpy as np
import pytest

from hincrec.graph import (
    ENDPOINTS,
    TYPE_ORDER,
    HinGraph,
    NodeRef,
    NodeType,
    Relation,
    SchemaViolation,
)


def test_add_node_first_index():
    g = HinGraph()
    assert g.add_node(NodeType.USER) == NodeRef(NodeType.USER, 0)


def test_add_node_dense_indexing():
    g = HinGraph()
    for _ in range(3):
        g.add_node(NodeType.CONCEPT)
    assert g.add_node(NodeType.CONCEPT) == NodeRef(NodeType.CONCEPT, 3)


def test_add_node_counters_independent_per_type():
    g = HinGraph()
    assert g.add_node(NodeType.COURSE) == NodeRef(NodeType.COURSE, 0)
    assert g.add_node(NodeType.VIDEO) == NodeRef(NodeType.VIDEO, 0)


def test_add_edge_insert():
    g = HinGraph()
    u = g.add_node(NodeType.USER)
    ks = g.add_nodes(NodeType.CONCEPT, 6)
    assert g.add_edge(u, ks[5], Relation.CLICK) is True
    assert len(g.neighbors(u, Relation.CLICK)) == 1


def test_add_edge_idempotent():
    g = HinGraph()
    u = g.add_node(NodeType.USER)
    k = g.add_node(NodeType.CONCEPT)
    assert g.add_edge(u, k, Relation.CLICK) is True
    assert g.add_edge(u, k, Relation.CLICK) is False
    assert g.add_edge(k, u, Relation.CLICK) is False  # same undirected triple
    assert len(g.neighbors(u, Relation.CLICK)) == 1


def test_add_edge_schema_violation():
    g = HinGraph()
    u = g.add_node(NodeType.USER)
    g.add_nodes(NodeType.VIDEO, 3)
    with pytest.raises(SchemaViolation):
        g.add_edge(u, NodeRef(NodeType.VIDEO, 2), Relation.LEARN)


def test_add_edge_unknown_node():
    g = HinGraph()
    u = g.add_node(NodeType.USER)
    with pytest.raises(ValueError):
        g.add_edge(u, NodeRef(NodeType.CONCEPT, 0), Relation.CLICK)


def test_neighbors_empty():
    g = HinGraph()
    u = g.add_node(NodeType.USER)
    assert g.neighbors(u, Relation.CLICK) == []


def test_neighbors_single():
    g = HinGraph()
    u = g.add_node(NodeType.USER)
    g.add_nodes(NodeType.COURSE, 2)
    c1 = NodeRef(NodeType.COURSE, 1)
    g.add_edge(u, c1, Relation.LEARN)
    assert g.neighbors(u, Relation.LEARN) == [c1]


def test_neighbors_sorted():
    g = HinGraph()
    u = g.add_node(NodeType.USER)
    ks = g.add_nodes(NodeType.CONCEPT, 3)
    for k in (ks[2], ks[0], ks[1]):
        g.add_edge(u, k, Relation.CLICK)
    assert g.neighbors(u, Relation.CLICK) == [ks[0], ks[1], ks[2]]


def test_symmetry_invariant():
    rng = np.random.default_rng(4)
    g = HinGraph()
    users = g.add_nodes(NodeType.USER, 5)
    concepts = g.add_nodes(NodeType.CONCEPT, 5)
    for _ in range(12):
        u = users[rng.integers(5)]
        k = concepts[rng.integers(5)]
        g.add_edge(u, k, Relation.CLICK)
    for u in users:
        for k in g.neighbors(u, Relation.CLICK):
            assert u in g.neighbors(k, Relation.CLICK)
    for k in concepts:
        for u in g.neighbors(k, Relation.CLICK):
            assert k in g.neighbors(u, Relation.CLICK)


def test_schema_closure_all_relations():
    # every relation accepts exactly its declared pair and rejects the rest
    counts = {t: 2 for t in NodeType}
    for relation, pair in ENDPOINTS.items():
        for ta, tb in itertools.product(NodeType, NodeType):
            g = HinGraph()
            for t, n in counts.items():
                g.add_nodes(t, n)
            a, b = NodeRef(ta, 0), NodeRef(tb, 1)
            if frozenset((ta, tb)) == pair:
                assert g.add_edge(a, b, relation)
            else:
                with pytest.raises(SchemaViolation):
                    g.add_edge(a, b, relation)


def test_repeated_insertion_keeps_degree_one():
    g = HinGraph()
    u = g.add_node(NodeType.USER)
    k = g.add_node(NodeType.CONCEPT)
    for _ in range(5):
        g.add_edge(u, k, Relation.CLICK)
    assert len(g.neighbors(u, Relation.CLICK)) == 1
    assert g.edge_count() == 1


def test_remove_edge_roundtrip():
    g = HinGraph()
    u = g.add_node(NodeType.USER)
    k = g.add_node(NodeType.CONCEPT)
    before = g.snapshot_digest()
    g.add_edge(u, k, Relation.CLICK)
    assert g.remove_edge(u, k, Relation.CLICK) is True
    assert g.remove_edge(u, k, Relation.CLICK) is False
    assert g.snapshot_digest() == before
    assert g.neighbors(u, Relation.CLICK) == []


class TestDigest:
    def test_empty_graph_stable(self):
        assert HinGraph().snapshot_digest() == HinGraph().snapshot_digest()

    def test_extra_edge_differs(self):
        # independent oracle: construct both graphs explicitly and compare
        def build(extra):
            g = HinGraph()
            u = g.add_node(NodeType.USER)
            ks = g.add_nodes(NodeType.CONCEPT, 2)
            g.add_edge(u, ks[0], Relation.CLICK)
            if extra:
                g.add_edge(u, ks[1], Relation.CLICK)
            return g

        assert build(False).snapshot_digest() != build(True).snapshot_digest()

    def test_insertion_order_invariant(self):
        edges = [
            (NodeRef(NodeType.USER, 0), NodeRef(NodeType.CONCEPT, 1), Relation.CLICK),
            (NodeRef(NodeType.USER, 1), NodeRef(NodeType.CONCEPT, 0), Relation.CLICK),
            (NodeRef(NodeType.USER, 0), NodeRef(NodeType.COURSE, 0), Relation.LEARN),
            (NodeRef(NodeType.COURSE, 0), NodeRef(NodeType.CONCEPT, 1), Relation.COVERS),
        ]
        digests = set()
        for perm in itertools.permutations(edges):
            g = HinGraph()
            g.add_nodes(NodeType.USER, 2)
            g.add_nodes(NodeType.COURSE, 1)
            g.add_nodes(NodeType.CONCEPT, 2)
            for a, b, rel in perm:
                g.add_edge(a, b, rel)
            digests.add(g.snapshot_digest())
        assert len(digests) == 1

    def test_digest_fits_64_bits(self):
        assert 0 <= HinGraph().snapshot_digest() < 2**64


class TestAgainstTripleSet:
    """Seeded random add/remove/copy sequences, checked after every step
    against a plain set of canonical (lo, hi, kind) triples."""

    COUNTS = {NodeType.USER: 4, NodeType.COURSE: 3, NodeType.VIDEO: 3, NodeType.CONCEPT: 5}

    @staticmethod
    def canonical(a, b, kind):
        return (a, b, kind) if a.sort_key() <= b.sort_key() else (b, a, kind)

    @staticmethod
    def in_order(triples):
        """The triples sorted by relation name, then by endpoint keys."""
        return sorted(triples, key=lambda t: (t[2].value, t[0].sort_key(), t[1].sort_key()))

    def fresh(self):
        g = HinGraph()
        for node_type, n in self.COUNTS.items():
            g.add_nodes(node_type, n)
        return g

    def random_edge(self, rng):
        kind = list(Relation)[int(rng.integers(len(Relation)))]
        a, b = (NodeRef(t, int(rng.integers(self.COUNTS[t]))) for t in ENDPOINTS[kind])
        return (a, b, kind) if rng.random() < 0.5 else (b, a, kind)

    def assert_agrees(self, g, triples):
        assert g.edge_count() == len(triples)
        assert list(g.edges()) == self.in_order(triples)
        for kind, pair in ENDPOINTS.items():
            lo_type, hi_type = sorted(pair, key=TYPE_ORDER.__getitem__)
            los = [NodeRef(lo_type, i) for i in range(self.COUNTS[lo_type])]
            his = [NodeRef(hi_type, j) for j in range(self.COUNTS[hi_type])]
            for lo, hi in itertools.product(los, his):
                present = (lo, hi, kind) in triples
                assert g.has_edge(lo, hi, kind) is present
                assert g.has_edge(hi, lo, kind) is present
        for node_type, n in self.COUNTS.items():
            for node in (NodeRef(node_type, i) for i in range(n)):
                for kind in Relation:
                    expected = sorted(
                        [hi for lo, hi, k in triples if k is kind and lo == node]
                        + [lo for lo, hi, k in triples if k is kind and hi == node],
                        key=lambda r: r.index,
                    )
                    assert g.neighbors(node, kind) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_random_sequence(self, seed):
        rng = np.random.default_rng(seed)
        g, triples = self.fresh(), set()
        copies = []  # (graph, the triples it held when the other was copied)
        for _ in range(200):
            op = rng.random()
            if op < 0.1:
                copy = g.copy()
                self.assert_agrees(copy, triples)
                if rng.random() < 0.5:  # carry on with the copy or the original
                    g, copy = copy, g
                copies.append((copy, frozenset(triples)))
                continue
            if op < 0.55:
                a, b, kind = self.random_edge(rng)
                inserted = g.add_edge(a, b, kind)
                assert inserted is (self.canonical(a, b, kind) not in triples)
                triples.add(self.canonical(a, b, kind))
            else:
                if triples and rng.random() < 0.5:
                    a, b, kind = self.in_order(triples)[int(rng.integers(len(triples)))]
                else:
                    a, b, kind = self.random_edge(rng)
                removed = g.remove_edge(a, b, kind)
                assert removed is (self.canonical(a, b, kind) in triples)
                triples.discard(self.canonical(a, b, kind))
            self.assert_agrees(g, triples)
        assert copies
        for copy, held in copies:
            self.assert_agrees(copy, held)
        # the digest depends on the edge set only: any insertion order and
        # orientation of the same triples gives it
        listed = self.in_order(triples)
        for _ in range(3):
            rebuilt = self.fresh()
            for i in rng.permutation(len(listed)):
                lo, hi, kind = listed[i]
                assert rebuilt.add_edge(*((lo, hi) if rng.random() < 0.5 else (hi, lo)), kind)
            assert rebuilt.snapshot_digest() == g.snapshot_digest()
            assert list(rebuilt.edges()) == list(g.edges())


def test_row_lookups_are_kept_per_key_and_read_the_live_rows():
    from hincrec.metapath import PathCorpus, builtin_metapaths

    U, K = NodeType.USER, NodeType.CONCEPT
    g = HinGraph()
    users, concepts = g.add_nodes(U, 2), g.add_nodes(K, 3)
    mp1 = builtin_metapaths()[0]  # user - concept - user, over clicks
    ends = list(zip(mp1.pattern, mp1.relations))
    lookups = g.row_lookups(mp1.type_keys, ends)
    assert g.row_lookups(mp1.type_keys, ends) is lookups
    assert [lookup(0) for lookup in lookups] == [None, None]
    g.add_edge(users[0], concepts[1], Relation.CLICK)
    assert lookups[0](0) == [1] and lookups[1](1) == [0]
    # a copy keeps none: its lookups read its own rows
    copy = g.copy()
    copied = copy.row_lookups(mp1.type_keys, ends)
    assert copied is not lookups
    copy.add_edge(users[1], concepts[1], Relation.CLICK)
    assert copied[1](1) == [0, 1] and lookups[1](1) == [0]
    # a corpus build makes one list per meta-path, which later calls return
    other = g.copy()
    mps = builtin_metapaths()
    PathCorpus.build(other, users, mps, n=3, rng=np.random.default_rng(0))
    for mp in mps:
        assert len(other.row_lookups(mp.type_keys, [])) == len(mp.relations)
