import io

import numpy as np
import pytest

from hincrec.graph import HinGraph, NodeRef, NodeType, Relation
from hincrec.metapath import (
    MetaPath,
    PathCorpus,
    builtin_metapaths,
    metapath_neighbors,
    sample_instances,
)

U, C, V, K = NodeType.USER, NodeType.COURSE, NodeType.VIDEO, NodeType.CONCEPT


class TestBuiltins:
    def test_four_metapaths(self):
        assert len(builtin_metapaths()) == 4
        assert [mp.id for mp in builtin_metapaths()] == [1, 2, 3, 4]

    def test_mp1_pattern(self):
        assert builtin_metapaths()[0].pattern == (U, K, U)

    def test_patterns(self):
        mps = builtin_metapaths()
        assert mps[1].pattern == (U, K, U, K, U)
        assert mps[2].pattern == (U, C, K, C, U)
        assert mps[3].pattern == (U, C, V, C, U)

    def test_mp4_relation_sequence(self):
        # derived by mapping consecutive type pairs through the schema
        mp4 = builtin_metapaths()[3]
        assert mp4.relations == (
            Relation.LEARN,
            Relation.CONTAINS,
            Relation.CONTAINS,
            Relation.LEARN,
        )

    def test_mp1_mp3_relation_sequences(self):
        mps = builtin_metapaths()
        assert mps[0].relations == (Relation.CLICK, Relation.CLICK)
        assert mps[2].relations == (
            Relation.LEARN,
            Relation.COVERS,
            Relation.COVERS,
            Relation.LEARN,
        )

    def test_invalid_patterns_rejected(self):
        with pytest.raises(ValueError):
            MetaPath(9, (U, K))  # too short
        with pytest.raises(ValueError):
            MetaPath(9, (K, U, K))  # must start at a user
        with pytest.raises(ValueError):
            MetaPath(9, (U, K, U, K))  # must end at a user
        with pytest.raises(ValueError):
            MetaPath(9, (U, U, U))  # no user-user relation
        with pytest.raises(ValueError):
            MetaPath(9, (U, K, K, U))  # no concept-concept relation


class TestSampling:
    def test_unique_walk(self, line_graph):
        g, users, k0 = line_graph
        mp1 = builtin_metapaths()[0]
        out = sample_instances(g, users[0], mp1, n=5, rng=np.random.default_rng(0))
        assert len(out) == 5  # duplicates are kept, the bag is a budget
        for inst in out:
            assert inst[0] == users[0]
            assert inst[1] == k0
            assert inst[2] in users  # K0's click neighbors are U0 and U1

    def test_isolated_user_empty(self):
        g = HinGraph()
        u = g.add_node(U)
        for mp in builtin_metapaths():
            assert sample_instances(g, u, mp, n=3, rng=np.random.default_rng(1)) == []

    def test_first_hop_uniform(self, fan_graph):
        # oracle: binomial(100, 0.5); 3 sigma = 3*sqrt(100*.25) = 15
        g, users, concepts = fan_graph
        mp1 = builtin_metapaths()[0]
        out = sample_instances(g, users[0], mp1, n=100, rng=np.random.default_rng(7))
        assert len(out) == 100
        k0_count = sum(1 for inst in out if inst[1] == concepts[0])
        assert abs(k0_count - 50) <= 15

    def test_walks_type_and_edge_check(self, fan_graph):
        g, users, _ = fan_graph
        for mp in builtin_metapaths():
            for inst in sample_instances(g, users[0], mp, n=20, rng=np.random.default_rng(3)):
                assert len(inst) == len(mp.pattern)
                for ref, want in zip(inst, mp.pattern):
                    assert ref.type == want
                for a, b, rel in zip(inst, inst[1:], mp.relations):
                    assert b in g.neighbors(a, rel)

    def test_determinism(self, fan_graph):
        g, users, _ = fan_graph
        mp2 = builtin_metapaths()[1]
        a = sample_instances(g, users[0], mp2, n=10, rng=np.random.default_rng(42))
        b = sample_instances(g, users[0], mp2, n=10, rng=np.random.default_rng(42))
        assert a == b

    def test_bound_respected(self, fan_graph):
        g, users, _ = fan_graph
        for n in (1, 3, 9):
            out = sample_instances(
                g, users[0], builtin_metapaths()[0], n=n, rng=np.random.default_rng(0)
            )
            assert len(out) <= n

    def test_max_len_validation(self, fan_graph):
        g, users, _ = fan_graph
        with pytest.raises(ValueError):
            sample_instances(
                g, users[0], builtin_metapaths()[1], n=1, max_len=3, rng=np.random.default_rng(0)
            )

    def test_non_user_start_rejected(self, fan_graph):
        g, _, concepts = fan_graph
        with pytest.raises(ValueError):
            sample_instances(
                g, concepts[0], builtin_metapaths()[0], n=1, rng=np.random.default_rng(0)
            )


class TestNeighbors:
    def test_single_instance(self, line_graph):
        g, users, k0 = line_graph
        mp1 = builtin_metapaths()[0]
        corpus = PathCorpus(builtin_metapaths())
        corpus._bags[(users[0], 1)] = [[users[0], k0, users[1]]]
        nbrs = metapath_neighbors(corpus, users[0], mp1)
        assert nbrs == [users[0], k0, users[1]]

    def test_empty_bag_self_only(self):
        corpus = PathCorpus(builtin_metapaths())
        u0 = NodeRef(U, 0)
        corpus._bags[(u0, 1)] = []
        assert metapath_neighbors(corpus, u0, builtin_metapaths()[0]) == [u0]

    def test_repeated_calls_agree(self, fan_graph):
        g, users, _ = fan_graph
        mps = builtin_metapaths()
        corpus = PathCorpus.build(g, users, mps, n=3, rng=np.random.default_rng(5))
        seq_a = [
            metapath_neighbors(corpus, users[0], mps[0])
            for _ in range(6)
        ]
        seq_b = [
            metapath_neighbors(corpus, users[0], mps[0])
            for _ in range(6)
        ]
        assert seq_a == seq_b

    def test_user_always_first_and_distinct(self, fan_graph):
        g, users, _ = fan_graph
        mps = builtin_metapaths()
        corpus = PathCorpus.build(g, users, mps, n=8, rng=np.random.default_rng(2))
        for mp in mps:
            nbrs = metapath_neighbors(corpus, users[0], mp)
            assert nbrs[0] == users[0]
            assert len(set(nbrs)) == len(nbrs)

    def test_union_of_all_walks_in_first_seen_order(self, fan_graph):
        # three overlapping MP1 walks; the neighborhood is their union,
        # not one drawn walk
        g, users, concepts = fan_graph
        u0, u1 = users
        k0, k1 = concepts
        mp1 = builtin_metapaths()[0]
        corpus = PathCorpus(builtin_metapaths())
        corpus._bags[(u0, 1)] = [[u0, k1, u1], [u0, k0, u0], [u0, k0, u1]]
        want = [u0, k1, u1, k0]
        assert metapath_neighbors(corpus, u0, mp1) == want


class TestCorpus:
    def test_build_covers_all_keys(self, fan_graph):
        g, users, _ = fan_graph
        mps = builtin_metapaths()
        corpus = PathCorpus.build(g, users, mps, n=4, rng=np.random.default_rng(0))
        for user in users:
            for mp in mps:
                assert len(corpus.bag(user, mp.id)) <= 4

    def test_corpus_determinism(self, fan_graph):
        g, users, _ = fan_graph
        mps = builtin_metapaths()
        a = PathCorpus.build(g, users, mps, n=6, rng=np.random.default_rng(3))
        b = PathCorpus.build(g, users, mps, n=6, rng=np.random.default_rng(3))
        assert a._bags == b._bags

    def test_snapshot_restore(self, fan_graph):
        g, users, _ = fan_graph
        mps = builtin_metapaths()
        corpus = PathCorpus.build(g, users, mps, n=4, rng=np.random.default_rng(0))
        saved = corpus.snapshot_user(users[0])
        corpus.resample_user(g, users[0], n=4, rng=np.random.default_rng(99))
        corpus.restore_user(users[0], saved)
        assert corpus.snapshot_user(users[0]) == saved

    def test_text_roundtrip(self, fan_graph):
        g, users, _ = fan_graph
        mps = builtin_metapaths()
        corpus = PathCorpus.build(g, users, mps, n=4, rng=np.random.default_rng(1))

        prefixes = {U: "u", C: "c", V: "v", K: "k"}

        def name_of(ref):
            return f"{prefixes[ref.type]}{ref.index}"

        def ref_of(token):
            by_prefix = {p: t for t, p in prefixes.items()}
            return NodeRef(by_prefix[token[0]], int(token[1:]))

        buf = io.StringIO()
        corpus.write_text(buf, name_of)
        # one line per walk: user<TAB>mp_id<TAB>node,node,...
        parsed = {}
        for line in buf.getvalue().splitlines():
            user, mp_id, nodes = line.split("\t")
            walk = [ref_of(tok) for tok in nodes.split(",")]
            parsed.setdefault((ref_of(user), int(mp_id)), []).append(walk)
        assert parsed == {k: v for k, v in corpus._bags.items() if v}
