import gc
import hashlib
import io

import numpy as np
import pytest

import unfused
from hincrec.graph import ENDPOINTS, TYPE_ORDER, HinGraph, NodeRef, NodeType, Relation
from hincrec.metapath import (
    BLOCK_WORDS,
    MetaPath,
    PathCorpus,
    Words,
    bounded_draws,
    builtin_metapaths,
    metapath_neighbors,
    sample_instances,
)
from hincrec.synth import SynthConfig, generate_synthetic
from unfused import keys_of

U, C, V, K = NodeType.USER, NodeType.COURSE, NodeType.VIDEO, NodeType.CONCEPT


def walk_refs(walks, mp):
    """The (walks, len(mp)) index array `walks` as lists of NodeRefs."""
    return [[NodeRef(t, i) for t, i in zip(mp.pattern, walk)] for walk in walks.tolist()]


def sample_refs(g, user, mp, n, rng):
    walks = sample_instances(g, user, mp, n=n, rng=rng)
    assert walks.shape == (len(walks), len(mp.pattern)) and walks.dtype == np.int64
    return walk_refs(walks, mp)


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
        out = sample_refs(g, users[0], mp1, n=5, rng=np.random.default_rng(0))
        assert len(out) == 5  # duplicates are kept, the bag is a budget
        for inst in out:
            assert inst[0] == users[0]
            assert inst[1] == k0
            assert inst[2] in users  # K0's click neighbors are U0 and U1

    def test_isolated_user_empty(self):
        g = HinGraph()
        u = g.add_node(U)
        for mp in builtin_metapaths():
            assert sample_refs(g, u, mp, n=3, rng=np.random.default_rng(1)) == []

    def test_first_hop_uniform(self, fan_graph):
        # oracle: binomial(100, 0.5); 3 sigma = 3*sqrt(100*.25) = 15
        g, users, concepts = fan_graph
        mp1 = builtin_metapaths()[0]
        out = sample_refs(g, users[0], mp1, n=100, rng=np.random.default_rng(7))
        assert len(out) == 100
        k0_count = sum(1 for inst in out if inst[1] == concepts[0])
        assert abs(k0_count - 50) <= 15

    def test_walks_type_and_edge_check(self, fan_graph):
        g, users, _ = fan_graph
        for mp in builtin_metapaths():
            for inst in sample_refs(g, users[0], mp, n=20, rng=np.random.default_rng(3)):
                assert len(inst) == len(mp.pattern)
                for ref, want in zip(inst, mp.pattern):
                    assert ref.type == want
                for a, b, rel in zip(inst, inst[1:], mp.relations):
                    assert b in g.neighbors(a, rel)

    def test_determinism(self, fan_graph):
        g, users, _ = fan_graph
        mp2 = builtin_metapaths()[1]
        a = sample_refs(g, users[0], mp2, n=10, rng=np.random.default_rng(42))
        b = sample_refs(g, users[0], mp2, n=10, rng=np.random.default_rng(42))
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
        corpus.restore_user(users[0], {1: [[0, 0, 1]]})
        nbrs = metapath_neighbors(corpus, users[0], mp1)
        assert nbrs.tolist() == keys_of([users[0], k0, users[1]]).tolist()

    def test_empty_bag_self_only(self):
        corpus = PathCorpus(builtin_metapaths())
        u0 = NodeRef(U, 0)
        corpus.restore_user(u0, {1: []})
        assert metapath_neighbors(corpus, u0, builtin_metapaths()[0]).tolist() == [0]

    def test_repeated_calls_agree(self, fan_graph):
        g, users, _ = fan_graph
        mps = builtin_metapaths()
        corpus = PathCorpus.build(g, users, mps, n=3, rng=np.random.default_rng(5))
        seq_a = [
            metapath_neighbors(corpus, users[0], mps[0]).tolist()
            for _ in range(6)
        ]
        seq_b = [
            metapath_neighbors(corpus, users[0], mps[0]).tolist()
            for _ in range(6)
        ]
        assert seq_a == seq_b

    def test_user_always_first_and_distinct(self, fan_graph):
        g, users, _ = fan_graph
        mps = builtin_metapaths()
        corpus = PathCorpus.build(g, users, mps, n=8, rng=np.random.default_rng(2))
        for mp in mps:
            nbrs = metapath_neighbors(corpus, users[0], mp).tolist()
            assert nbrs[0] == keys_of([users[0]])[0]
            assert len(set(nbrs)) == len(nbrs)

    def test_union_of_all_walks_in_first_seen_order(self, fan_graph):
        # three overlapping MP1 walks; the neighborhood is their union,
        # not one drawn walk
        g, users, concepts = fan_graph
        u0, u1 = users
        k0, k1 = concepts
        mp1 = builtin_metapaths()[0]
        corpus = PathCorpus(builtin_metapaths())
        corpus.restore_user(u0, {1: [[0, 1, 1], [0, 0, 0], [0, 0, 1]]})
        assert corpus.bag(u0, 1) == [[u0, k1, u1], [u0, k0, u0], [u0, k0, u1]]
        want = [u0, k1, u1, k0]
        assert metapath_neighbors(corpus, u0, mp1).tolist() == keys_of(want).tolist()


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
        assert a._bags.keys() == b._bags.keys()
        for key, walks in a._bags.items():
            assert np.array_equal(walks, b._bags[key])

    def test_snapshot_restore(self, fan_graph):
        g, users, _ = fan_graph
        mps = builtin_metapaths()
        corpus = PathCorpus.build(g, users, mps, n=4, rng=np.random.default_rng(0))
        saved = corpus.snapshot_user(users[0])
        corpus.resample_user(g, users[0], n=4, rng=np.random.default_rng(99))
        corpus.restore_user(users[0], saved)
        restored = corpus.snapshot_user(users[0])
        assert restored.keys() == saved.keys()
        for mp_id, walks in saved.items():
            assert np.array_equal(restored[mp_id], walks)

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
        by_id = {mp.id: mp for mp in mps}
        assert parsed == {
            (user, mp_id): walk_refs(walks, by_id[mp_id])
            for (user, mp_id), walks in corpus._bags.items()
            if len(walks)
        }


class TestAgainstReferenceSampler:
    """The sampler over integer rows draws the walks of the NodeRef-list
    sampler of tests/unfused.py and leaves the generator where it does."""

    @staticmethod
    def random_graph(rng):
        """A few nodes per type, each relation wired at its own density:
        sparse ones leave dead ends and rows of one neighbor."""
        g = HinGraph()
        counts = {t: int(rng.integers(1, 5)) for t in NodeType}
        for t, n in counts.items():
            g.add_nodes(t, n)
        for rel, pair in ENDPOINTS.items():
            a, b = sorted(pair, key=TYPE_ORDER.get)
            density = 0.8 * rng.random()
            for i in range(counts[a]):
                for j in range(counts[b]):
                    if rng.random() < density:
                        g.add_edge(NodeRef(a, i), NodeRef(b, j), rel)
        return g, counts

    def test_same_walks_and_generator_state(self, monkeypatch):
        seen = {
            "degree one": 0,
            "dead end": 0,
            "dead end, then a full bag": 0,
            "exhausted": 0,
            "exhausted after draws": 0,
        }
        for seed in range(40):
            gen = np.random.default_rng([seed, 11])
            g, counts = self.random_graph(gen)
            dead = []
            neighbors = g.neighbors

            def counting(node, kind):
                nbrs = neighbors(node, kind)
                dead.append(not nbrs)
                return nbrs

            monkeypatch.setattr(g, "neighbors", counting)
            for mp in builtin_metapaths():
                for u in range(counts[U]):
                    user, n = NodeRef(U, u), int(gen.integers(1, 6))
                    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                    dead.clear()
                    want = unfused.sample_instances(g, user, mp, n=n, rng=theirs)
                    walks = sample_instances(g, user, mp, n=n, rng=ours)
                    assert walk_refs(walks, mp) == want, (seed, mp.id, u)
                    drew = theirs.bit_generator.state != np.random.default_rng(seed).bit_generator.state
                    # the state holds a buffered half of a 64-bit draw, which a
                    # bounded draw below 2**32 reads first
                    assert ours.bit_generator.state == theirs.bit_generator.state
                    assert ours.integers(7) == theirs.integers(7), (seed, mp.id, u)
                    seen["degree one"] += sum(
                        len(neighbors(a, rel)) == 1
                        for walk in want
                        for a, rel in zip(walk, mp.relations)
                    )
                    seen["dead end"] += any(dead)
                    seen["dead end, then a full bag"] += any(dead) and len(want) == n
                    seen["exhausted"] += len(want) < n
                    seen["exhausted after draws"] += len(want) < n and drew
        assert all(seen.values()), seen

    def test_degree_one_hop_draws_nothing(self, line_graph):
        # U0's only MP1 first hop is K0; the second hop picks U0 or U1
        g, users, k0 = line_graph
        mp1 = builtin_metapaths()[0]
        ours, draws = np.random.default_rng(4), np.random.default_rng(4)
        walks = sample_instances(g, users[0], mp1, n=3, rng=ours)
        assert walks[:, 1].tolist() == [k0.index] * 3
        assert walks[:, 2].tolist() == [int(draws.integers(2)) for _ in range(3)]
        assert ours.bit_generator.state == draws.bit_generator.state


class TestBoundedDraws:
    """`bounded_draws` against ``rng.integers(k)``, numpy's own bounded draw."""

    @staticmethod
    def words_per_draw(rng, k, draws):
        """The values of `draws` calls of ``bounded_draws(rng)(k)`` and the
        32-bit words each consumed, counted on a copy of `rng` that reads
        one raw word at a time until its state catches up."""
        raw = np.random.default_rng()
        raw.bit_generator.state = rng.bit_generator.state
        draw, values, words = bounded_draws(rng), [], []
        for _ in range(draws):
            values.append(draw(k))
            state, count = rng.bit_generator.state, 0
            while raw.bit_generator.state != state:
                raw.integers(0, 2**32, dtype=np.uint32)  # one next_uint32
                count += 1
            words.append(count)
        return values, words

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered half"])
    @pytest.mark.parametrize("k", [2, 3, 7, 500, 2**31 + 1, 3 * 2**30, 2**32 - 1])
    def test_values_and_state_equal_integers(self, k, buffered):
        ours, theirs = np.random.default_rng([k, 5]), np.random.default_rng([k, 5])
        if buffered:
            ours.integers(7), theirs.integers(7)
            assert ours.bit_generator.state["has_uint32"] == 1
        values, words = self.words_per_draw(ours, k, 400)
        assert values == [int(theirs.integers(k)) for _ in values]
        assert ours.bit_generator.state == theirs.bit_generator.state
        # a draw is redrawn while its low word falls below (2**32 - k) % k:
        # about half the time at 2**31 + 1, a quarter at 3 * 2**30, and
        # next to never at the other k
        redrawn = sum(w > 1 for w in words) / len(words)
        assert abs(redrawn - ((2**32 - k) % k) / 2**32) < 0.1

    def test_keeps_its_generator_alive(self):
        draw = bounded_draws(np.random.default_rng(5))
        gc.collect()
        want = np.random.default_rng(5).integers(7, size=50).tolist()
        assert [draw(7) for _ in want] == want


class TestWords:
    """`Words`, the pre-drawn words the walks read, against per-draw calls."""

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered half"])
    @pytest.mark.parametrize("k", [2, 3, 7, 500, 2**31 + 1, 3 * 2**30, 2**32 - 1])
    def test_bounded_equals_integers(self, k, buffered):
        ours, theirs = np.random.default_rng([k, 5]), np.random.default_rng([k, 5])
        if buffered:
            ours.integers(7), theirs.integers(7)
            assert ours.bit_generator.state["has_uint32"] == 1
        # three words first, then doubling blocks: 400 draws cross several
        words = Words(ours, first=3)
        values = [words.bounded(k) for _ in range(400)]
        words.settle()
        assert values == [int(theirs.integers(k)) for _ in values]
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_settle_is_idempotent_and_the_source_draws_on(self):
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        words = Words(ours, first=5)
        words.settle()  # before any draw: leaves the generator alone
        assert ours.bit_generator.state == theirs.bit_generator.state
        values = [words.bounded(9) for _ in range(7)]
        words.settle()
        words.settle()
        ours.random()  # a draw of its own between two uses of the source
        values += [words.bounded(9) for _ in range(7)]
        words.settle()
        want = [int(theirs.integers(9)) for _ in range(7)]
        theirs.random()
        want += [int(theirs.integers(9)) for _ in range(7)]
        assert values == want
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_blocks_are_capped(self):
        words = Words(np.random.default_rng(0), first=10**6)
        words.bounded(3)
        assert len(words.buf) == BLOCK_WORDS
        for _ in range(3 * BLOCK_WORDS):
            words.bounded(3)
        assert len(words.buf) == BLOCK_WORDS


BIT_GENERATORS = [np.random.MT19937, np.random.Philox, np.random.SFC64]


def assert_same_state(ours, theirs):
    # the states of these bit generators hold arrays
    np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)


def reference_bags(graph, users, mps, n, rng):
    """The bags of a build, walked one (user, meta-path) at a time by
    ``unfused.sample_instances``."""
    return [unfused.sample_instances(graph, user, mp, n=n, rng=rng)
            for user in users for mp in mps]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_other_bit_generators_walk_as_the_reference_does(bit_generator):
    gen = np.random.default_rng([3, 11])
    seen = 0
    for _ in range(8):
        g, counts = TestAgainstReferenceSampler.random_graph(gen)
        seed = int(gen.integers(2**31))
        ours, theirs = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        for mp in builtin_metapaths():
            for u in range(counts[U]):
                user, n = NodeRef(U, u), int(gen.integers(1, 6))
                want = unfused.sample_instances(g, user, mp, n=n, rng=theirs)
                assert walk_refs(sample_instances(g, user, mp, n=n, rng=ours), mp) == want
                assert_same_state(ours, theirs)
                seen += len(want)
    assert seen


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_build_under_other_bit_generators_walks_as_the_reference_does(bit_generator):
    ds = generate_synthetic(ACCEPTANCE_WORLD)
    users = [NodeRef(U, i) for i in range(ds.user_count())]
    mps = builtin_metapaths()
    ours, theirs = np.random.Generator(bit_generator(7)), np.random.Generator(bit_generator(7))
    corpus = PathCorpus.build(ds.graph, users, mps, n=10, max_len=5, rng=ours)
    want = reference_bags(ds.graph, users, mps, 10, theirs)
    # 200 users' walks read more words than several blocks hold
    assert sum(len(walks) * (len(walks[0]) - 1) for walks in want if walks) > 4 * BLOCK_WORDS
    got = [walk_refs(corpus.walks(user, mp.id), mp) for user in users for mp in mps]
    assert got == want
    assert_same_state(ours, theirs)
    # a re-walk from a bare Generator opens and settles its own source
    corpus.resample_user(ds.graph, users[3], n=10, rng=ours)
    want = reference_bags(ds.graph, users[3:4], mps, 10, theirs)
    assert [walk_refs(corpus.walks(users[3], mp.id), mp) for mp in mps] == want
    assert_same_state(ours, theirs)


def test_a_build_that_raises_leaves_the_generator_where_the_walks_left_it():
    ds = generate_synthetic(ACCEPTANCE_WORLD)
    users = [NodeRef(U, i) for i in range(40)]
    mps = builtin_metapaths()
    ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
    with pytest.raises(ValueError, match="walks must start at a user"):
        PathCorpus.build(ds.graph, [*users, NodeRef(K, 0), NodeRef(U, 40)], mps, n=10,
                         rng=ours)
    reference_bags(ds.graph, users, mps, 10, theirs)
    assert_same_state(ours, theirs)
    assert ours.integers(2**32 - 1) == theirs.integers(2**32 - 1)


# The acceptance world of tests/test_acceptance.py, walked as a corpus
# build does, with N = 10 and l = 5.
ACCEPTANCE_WORLD = SynthConfig(users=200, concepts=50, clusters=5, p_in=0.9, p_out=0.02,
                               clicks_per_user=20, seed=7)


def test_acceptance_world_bags_are_pinned():
    # computed with rng.integers(degree) per hop; a change of numpy's
    # bounded draw, or of the sampler's order of draws, moves them
    ds = generate_synthetic(ACCEPTANCE_WORLD)
    users = sorted({c.user for c in ds.clicks}, key=lambda r: r.index)
    rng = np.random.default_rng(7)
    corpus = PathCorpus.build(ds.graph, users, builtin_metapaths(), n=10, max_len=5, rng=rng)
    digest = hashlib.sha256()
    for user in corpus.users():
        for mp in corpus.metapaths:
            digest.update(corpus.walks(user, mp.id).astype("<i8").tobytes())
            digest.update(b"|")
    assert len(corpus.users()) == 200
    assert digest.hexdigest() == (
        "b4fca1d0e2c1a13ea644f1d2d1ae0a00207438f818a660213673cbc72bf736ce"
    )
    assert int(rng.integers(2**32 - 1)) == 3350104315


# bench/workloads.py's 4x world, whose corpus the `reinforce` workload builds
REINFORCE_WORLD = SynthConfig(users=800, concepts=200, clusters=20, courses=40, videos=80,
                              seed=7)


def test_reinforce_world_bags_are_pinned():
    # computed with bounded_draws per hop, before the walks read words
    # drawn ahead; at this size a build reads many blocks
    ds = generate_synthetic(REINFORCE_WORLD)
    users = sorted({c.user for c in ds.clicks}, key=lambda r: r.index)
    rng = np.random.default_rng(5)
    corpus = PathCorpus.build(ds.graph, users, builtin_metapaths(), n=10, max_len=5, rng=rng)
    digest = hashlib.sha256()
    for user in corpus.users():
        for mp in corpus.metapaths:
            digest.update(corpus.walks(user, mp.id).astype("<i8").tobytes())
            digest.update(b"|")
    assert len(corpus.users()) == 800
    assert digest.hexdigest() == (
        "7b7be9b943ef11af85dc59ad959200da802dedc95c80117b3c6d1c410bb8e781"
    )
    assert int(rng.integers(2**32 - 1)) == 2978438168


def test_bags_and_neighbor_lists_share_one_ref_per_node(fan_graph):
    g, users, concepts = fan_graph
    copy = g.copy()
    assert all(a is b for a, b in zip(copy.neighbors(users[0], Relation.CLICK), concepts))
    corpus = PathCorpus.build(copy, users, builtin_metapaths(), n=4, rng=np.random.default_rng(0))
    nodes = {id(ref) for ref in (*users, *concepts)}
    for user in users:
        for mp in corpus.metapaths:
            for walk in corpus.bag(user, mp.id):
                assert {id(ref) for ref in walk} <= nodes
