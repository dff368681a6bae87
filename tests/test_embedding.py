import math

import numpy as np
import pytest

import unfused
from unfused import node_aggregate, node_attention, path_attention, project

from hincrec import embedding, metrics
from hincrec.autodiff import Tape, grad_check
from hincrec.data import holdout_targets, temporal_split
from hincrec.embedding import (
    EmbedConfig,
    EmbedParams,
    build_user_embedding,
    build_user_embeddings,
    neighborhood,
    neighborhood_keys,
    user_embedding,
)
from hincrec.graph import HinGraph, NodeRef, NodeType, Relation, node_key
from hincrec.metapath import PathCorpus, builtin_metapaths, metapath_neighbors
from hincrec.metrics import PolicyScorer
from hincrec.model import init_model
from hincrec.policy import ActionSet, build_action_distribution, policy_logits
from hincrec.synth import SynthConfig, generate_synthetic
from hincrec.training import make_training_env

U, K = NodeType.USER, NodeType.CONCEPT


def tiny_params(dim=4, heads=2, feat_dim=3, path_hidden=5, counts=None, seed=0, **kw):
    cfg = EmbedConfig(dim=dim, heads=heads, feat_dim=feat_dim, path_hidden=path_hidden, **kw)
    counts = counts or {t: 3 for t in NodeType}
    return EmbedParams(cfg, counts, builtin_metapaths(), np.random.default_rng(seed))


def leaky(x, s=0.2):
    return np.where(np.asarray(x) > 0, x, s * np.asarray(x))


class TestProject:
    def test_identity(self):
        p = tiny_params(dim=2, heads=1, feat_dim=2)
        p.tensors["proj.user"] = np.eye(2)
        p.tensors["feat.user"][0] = [1.0, 2.0]
        assert np.allclose(project(p, NodeRef(U, 0)), [1.0, 2.0])

    def test_zero_matrix(self):
        p = tiny_params(dim=2, heads=1, feat_dim=2)
        p.tensors["proj.concept"] = np.zeros((2, 2))
        assert np.allclose(project(p, NodeRef(K, 1)), [0.0, 0.0])

    def test_hand_matvec(self):
        p = tiny_params(dim=2, heads=1, feat_dim=2)
        p.tensors["proj.user"] = np.array([[1.0, 1.0], [0.0, 1.0]])
        p.tensors["feat.user"][2] = [2.0, 3.0]
        assert np.allclose(project(p, NodeRef(U, 2)), [5.0, 3.0])


class TestNodeAttention:
    def test_singleton_neighborhood(self):
        p = tiny_params()
        alpha = node_attention(p, NodeRef(U, 0), [NodeRef(U, 0)], p.metapaths[0], 0)
        assert np.allclose(alpha, [1.0])

    def test_zero_attention_vector_uniform(self):
        p = tiny_params()
        p.tensors["attn.mp1"][:] = 0.0
        nbrs = [NodeRef(U, 0), NodeRef(K, 0), NodeRef(U, 1)]
        alpha = node_attention(p, NodeRef(U, 0), nbrs, p.metapaths[0], 1)
        assert np.allclose(alpha, [1 / 3] * 3, atol=1e-12)

    def test_closed_form_quarter_three_quarters(self):
        # craft logits 0 and ln 3 by hand: one-hot attention over a scalar
        # projected feature, self contribution zero
        p = tiny_params(dim=1, heads=1, feat_dim=1)
        p.tensors["proj.user"] = np.array([[1.0]])
        p.tensors["proj.concept"] = np.array([[1.0]])
        p.tensors["attn.mp1"] = np.array([[0.0, 1.0]])  # logit = h'_j
        p.tensors["feat.concept"][0] = [0.0]            # leaky(0) = 0
        p.tensors["feat.concept"][1] = [math.log(3.0)]  # leaky(ln3) = ln3
        nbrs = [NodeRef(K, 0), NodeRef(K, 1)]
        alpha = node_attention(p, NodeRef(U, 0), nbrs, p.metapaths[0], 0)
        assert np.allclose(alpha, [0.25, 0.75], atol=1e-12)

    def test_normalized_and_nonnegative(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            p = tiny_params(seed=seed)
            n = int(rng.integers(1, 5))
            nbrs = [NodeRef(K, int(rng.integers(3))) for _ in range(n)] + [NodeRef(U, 0)]
            for head in range(p.cfg.heads):
                alpha = node_attention(p, NodeRef(U, 0), nbrs, p.metapaths[2], head)
                assert abs(alpha.sum() - 1.0) < 1e-9
                assert np.all(alpha >= 0)


class TestNodeAggregate:
    def _corpus_self_only(self, user):
        corpus = PathCorpus(builtin_metapaths())
        corpus.restore_user(user, {mp.id: [] for mp in corpus.metapaths})
        return corpus

    def test_self_only_neighborhood(self):
        p = tiny_params()
        user = NodeRef(U, 0)
        corpus = self._corpus_self_only(user)
        out = node_aggregate(p, user, p.metapaths[0], corpus)
        h = project(p, user)
        # alpha = [1] so each head is leaky(h'_u)
        assert np.allclose(out, np.concatenate([leaky(h)] * p.cfg.heads))

    def test_single_head_dimension(self):
        p = tiny_params(dim=6, heads=1, feat_dim=3)
        user = NodeRef(U, 0)
        out = node_aggregate(p, user, p.metapaths[1], self._corpus_self_only(user))
        assert out.shape == (6,)

    def test_multi_head_dimension_64(self):
        counts = {t: 2 for t in NodeType}
        p = tiny_params(dim=64, heads=4, feat_dim=8, counts=counts)
        assert p.cfg.head_dim == 16
        user = NodeRef(U, 0)
        out = node_aggregate(p, user, p.metapaths[0], self._corpus_self_only(user))
        assert out.shape == (64,)

    @pytest.mark.parametrize("heads", [1, 2, 4, 8])
    def test_output_dim_for_any_head_split(self, heads):
        p = tiny_params(dim=8, heads=heads, feat_dim=3)
        user = NodeRef(U, 0)
        out = node_aggregate(p, user, p.metapaths[0], self._corpus_self_only(user))
        assert out.shape == (8,)


class TestPathAttention:
    def test_equal_scores_uniform(self):
        p = tiny_params()
        p.tensors["path.W"][:] = 0.0
        p.tensors["path.b"][:] = 1.0
        embs = [np.full(p.cfg.dim, v) for v in (1.0, -2.0, 0.0, 3.0)]
        beta, scores = path_attention(p, embs)
        assert np.allclose(scores, scores[0])
        assert np.allclose(beta, [0.25] * 4, atol=1e-12)

    def test_zero_query_uniform(self):
        p = tiny_params()
        p.tensors["path.q"][:] = 0.0
        embs = [np.random.default_rng(i).normal(size=p.cfg.dim) for i in range(4)]
        beta, _ = path_attention(p, embs)
        assert np.allclose(beta, [0.25] * 4, atol=1e-12)

    def test_closed_form_two_paths(self):
        # scores 0 and ln3 via q = [2], tanh(W u + b)
        p = tiny_params(dim=1, heads=1, feat_dim=1, path_hidden=1)
        p.tensors["path.W"] = np.array([[1.0]])
        p.tensors["path.b"] = np.array([0.0])
        p.tensors["path.q"] = np.array([2.0])
        u2 = math.atanh(math.log(3.0) / 2.0)
        beta, scores = path_attention(p, [np.array([0.0]), np.array([u2])])
        assert np.allclose(scores, [0.0, math.log(3.0)])
        assert np.allclose(beta, [0.25, 0.75], atol=1e-12)

    def test_beta_normalized(self):
        for seed in range(30):
            p = tiny_params(seed=seed)
            embs = [np.random.default_rng(seed + i).normal(size=p.cfg.dim) for i in range(4)]
            beta, _ = path_attention(p, embs)
            assert abs(beta.sum() - 1.0) < 1e-9
            assert np.all(beta >= 0)

    def test_softmax_shift_invariance_on_scores(self):
        # the normalization used for beta ignores constant shifts
        tape = Tape(record=False)
        w = np.array([0.3, -1.0, 2.2, 0.0])
        a = tape.softmax(tape.leaf(w)).value
        b = tape.softmax(tape.leaf(w + 55.5)).value
        assert np.allclose(a, b, atol=1e-12)


def build_line_world(seed=0, **cfg_kw):
    """U0-K0-U1 line plus an unclicked concept K1 for edge-insertion tests."""
    g = HinGraph()
    users = g.add_nodes(U, 2)
    concepts = g.add_nodes(K, 2)
    g.add_edge(users[1], concepts[0], Relation.CLICK)
    g.add_edge(users[1], concepts[1], Relation.CLICK)
    counts = g.node_counts
    params = tiny_params(counts=counts, seed=seed, **cfg_kw)
    return g, users, concepts, params


class TestUserEmbedding:
    def test_single_metapath_equals_path_embedding(self):
        g, users, _, params = build_line_world()
        params.metapaths = [builtin_metapaths()[0]]
        params.tensors = {
            k: v for k, v in params.tensors.items() if not k.startswith("attn.") or k == "attn.mp1"
        }
        corpus = PathCorpus.build(g, users, params.metapaths, n=4, rng=np.random.default_rng(0))
        emb = user_embedding(params, g, corpus, users[0])
        agg = node_aggregate(params, users[0], params.metapaths[0], corpus)
        assert np.allclose(emb.beta, [1.0])
        assert np.allclose(emb.vector, agg)

    def test_equal_path_embeddings_convex_combination(self):
        # isolated user: every meta-path falls back to the self neighborhood,
        # so all per-path embeddings coincide and the fusion returns them
        g = HinGraph()
        user = g.add_node(U)
        g.add_node(K)
        params = tiny_params(counts=g.node_counts)
        corpus = PathCorpus.build(g, [user], params.metapaths, n=3,
                                  rng=np.random.default_rng(0))
        emb = user_embedding(params, g, corpus, user)
        per_path = node_aggregate(params, user, params.metapaths[0], corpus)
        assert np.allclose(emb.vector, per_path, atol=1e-12)
        assert abs(emb.beta.sum() - 1.0) < 1e-9

    def test_embedding_changes_after_reachable_click(self):
        g, users, concepts, params = build_line_world()
        corpus = PathCorpus.build(g, users, params.metapaths, n=4,
                                  rng=np.random.default_rng(0))
        before = user_embedding(params, g, corpus, users[0])
        # wire U0 into the line so MP1 walks U0-K0-U1 become reachable
        assert g.add_edge(users[0], concepts[0], Relation.CLICK)
        corpus.resample_user(g, users[0], n=4, rng=np.random.default_rng(6))
        after = user_embedding(params, g, corpus, users[0])
        assert np.linalg.norm(after.vector - before.vector) > 0

    def test_pure_function_of_params_and_corpus(self):
        # U0's bags hold walks with different node sets, so a per-call walk
        # draw would make two calls disagree
        g, users, concepts, params = build_line_world()
        g.add_edge(users[0], concepts[0], Relation.CLICK)
        corpus = PathCorpus.build(g, users, params.metapaths, n=6,
                                  rng=np.random.default_rng(0))
        mp2_sets = {frozenset(w) for w in corpus.bag(users[0], 2)}
        assert len(mp2_sets) > 1
        a = user_embedding(params, g, corpus, users[0])
        b = user_embedding(params, g, corpus, users[0])
        assert np.array_equal(a.vector, b.vector)
        assert np.array_equal(a.beta, b.beta)

    def test_policy_scorer_independent_of_scoring_order(self):
        g, users, concepts, _ = build_line_world()
        g.add_edge(users[0], concepts[0], Relation.CLICK)
        cfg = EmbedConfig(dim=4, heads=2, feat_dim=3, path_hidden=5)
        model = init_model(g, builtin_metapaths(), cfg, rng=np.random.default_rng(0))
        # zero-initialised scores would give zero logits for every user
        model.policy.tensors["policy.scores"][...] = np.random.default_rng(1).normal(
            size=model.policy.tensors["policy.scores"].shape
        )
        corpus = PathCorpus.build(g, users, builtin_metapaths(), n=6,
                                  rng=np.random.default_rng(0))
        forward = PolicyScorer(model, g, corpus)
        backward = PolicyScorer(model, g, corpus)
        got_fwd = [forward.logits(u) for u in users]
        got_bwd = [backward.logits(u) for u in reversed(users)][::-1]
        for f, b in zip(got_fwd, got_bwd):
            assert np.array_equal(f, b)

    def test_forward_only_embedding_keeps_no_arrays(self):
        # user_embedding embeds a user once; build_user_embedding keeps the
        # neighborhood keys in the corpus for the next pass
        g, users, _, params = build_line_world()
        corpus = PathCorpus.build(g, users, params.metapaths, n=2,
                                  rng=np.random.default_rng(0))
        emb = user_embedding(params, g, corpus, users[0])
        assert corpus.kept(users[0]) == {}
        tape = Tape(record=False)
        u, beta = build_user_embedding(tape, _leaves(tape, params), params, corpus, users[0])
        assert list(corpus.kept(users[0])) == [tuple(mp.id for mp in params.metapaths)]
        assert np.array_equal(u.value, emb.vector) and np.array_equal(beta.value, emb.beta)

    def test_output_dimension(self):
        g, users, _, params = build_line_world(dim=8, heads=4, feat_dim=3)
        corpus = PathCorpus.build(g, users, params.metapaths, n=2,
                                  rng=np.random.default_rng(0))
        emb = user_embedding(params, g, corpus, users[0])
        assert emb.vector.shape == (8,)

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError):
            EmbedConfig(dim=10, heads=4)


class TestEmbeddingGradients:
    def test_grad_check_squared_norm(self):
        # d(0.5 * |u|^2)/d(theta) for every embedding tensor on a small graph
        g, users, concepts, params = build_line_world(seed=3)
        g.add_edge(users[0], concepts[0], Relation.CLICK)
        corpus = PathCorpus.build(g, users, params.metapaths, n=3,
                                  rng=np.random.default_rng(1))

        def f(tape, leaves):
            u, _ = build_user_embedding(tape, leaves, params, corpus, users[0])
            return tape.scale(unfused.dot(tape, u, u), 0.5)

        err = grad_check(f, params.tensors, eps=1e-5)
        assert err < 1e-4


# -- fused kernels against the unfused composition ----------------------------


@pytest.fixture(scope="module")
def acceptance_world():
    """Training env of the acceptance world (tests/test_acceptance.py).
    The first training user's four bags and the last one's MP3 bag are
    emptied, so that the self-only fallback is among the users compared."""
    ds = generate_synthetic(
        SynthConfig(users=200, concepts=50, clusters=5, p_in=0.9, p_out=0.02,
                    clicks_per_user=20, seed=7)
    )
    stamps = sorted(c.ts for c in ds.clicks)
    split = temporal_split(ds, stamps[int(0.8 * len(stamps))])
    hold = holdout_targets(split.train, 0.5)
    rng = np.random.default_rng(7)
    env = make_training_env(
        hold.graph, hold.targets, builtin_metapaths(), walks_per_path=10, max_walk_len=5,
        rng=rng,
    )
    env.corpus.restore_user(env.users[-1], {3: []})
    env.corpus.restore_user(env.users[0], {mp.id: [] for mp in env.corpus.metapaths})
    return env, hold.graph


def _leaves(tape, params):
    return {k: tape.leaf(v) for k, v in params.tensors.items()}


def embedding_loss(tape, leaves, params, corpus, user, build):
    """0.5 |u|^2 + c . beta: reaches every embedding tensor through both the
    user vector and the path weights."""
    u, beta = build(tape, leaves, params, corpus, user)
    c = tape.leaf(np.linspace(-1.0, 1.0, beta.value.size))
    loss = tape.vecadd(tape.scale(unfused.dot(tape, u, u), 0.5), unfused.dot(tape, beta, c))
    return u, beta, loss


class TestFusedMatchesUnfused:
    def test_every_training_user(self, acceptance_world):
        env, graph = acceptance_world
        params = EmbedParams(
            EmbedConfig(), graph.node_counts, builtin_metapaths(), np.random.default_rng(3)
        )
        for user in env.users:
            got = []
            for build in (build_user_embedding, unfused.user_embedding):
                tape = Tape()
                leaves = _leaves(tape, params)
                u, beta, loss = embedding_loss(tape, leaves, params, env.corpus, user, build)
                got.append((u.value, beta.value, tape.gradients(loss, leaves)))
            (u1, b1, g1), (u2, b2, g2) = got
            assert np.max(np.abs(u1 - u2)) <= 1e-12, user
            assert np.max(np.abs(b1 - b2)) <= 1e-12, user
            # relative to the largest gradient entry of the user: a tensor
            # whose true gradient is 0 (beta of an all-empty user) reads
            # rounding noise in both compositions
            scale = max(np.max(np.abs(want)) for want in g2.values())
            for name, want in g2.items():
                assert np.max(np.abs(g1[name] - want)) <= 1e-9 * scale, (user, name)

    def test_tape_node_budget(self, acceptance_world):
        # embedding, policy and cross-entropy loss of one user, as pretrain
        # builds them
        env, graph = acceptance_world
        model = init_model(graph, builtin_metapaths(), EmbedConfig(),
                           rng=np.random.default_rng(0))
        actions = ActionSet.full(env.n_concepts)
        most = 0
        for user in env.users:
            tape = Tape()
            leaves = model.leaves(tape)
            u, _ = build_user_embedding(tape, leaves, model.embed, env.corpus, user)
            dist = build_action_distribution(tape, leaves, model.policy, u, actions)
            tape.scale(tape.log(tape.gather_row(dist, 0)), -1.0)
            most = max(most, len(tape._nodes))
        assert most <= 40


class TestPolicyScorerLogits:
    @staticmethod
    def scored_model(graph):
        model = init_model(graph, builtin_metapaths(), EmbedConfig(),
                           rng=np.random.default_rng(2))
        rng = np.random.default_rng(5)
        for arr in model.policy.tensors.values():
            arr[...] = rng.normal(size=arr.shape)
        return model

    @staticmethod
    def per_user_logits(model, graph, corpus, user):
        emb = user_embedding(model.embed, graph, corpus, user)
        tape = Tape(record=False)
        return policy_logits(tape, model.leaves(tape), tape.leaf(emb.vector)).value

    @pytest.mark.parametrize("n_users", [1, 63, 64, 65])
    @pytest.mark.parametrize("first", [0, -1])
    def test_batched_logits_match_per_user(self, acceptance_world, monkeypatch, n_users, first):
        # the corpus holds the first n users' bags, which include the
        # emptied ones; the first call embeds all of them in chunks of 64
        env, graph = acceptance_world
        model = self.scored_model(graph)
        users = env.users[:n_users]
        corpus = PathCorpus(env.corpus.metapaths)
        for user in users:
            corpus.restore_user(user, env.corpus.snapshot_user(user))
        batches = []
        batched = metrics.build_user_embeddings

        def counting(tape, leaves, params, hoods):
            batches.append(len(hoods))
            return batched(tape, leaves, params, hoods)

        monkeypatch.setattr(metrics, "build_user_embeddings", counting)
        scorer = PolicyScorer(model, graph, corpus)
        asked = [users[first]] + [u for u in users if u != users[first]]
        got = {user: scorer.logits(user) for user in asked}
        assert batches == [64] * (n_users // 64) + [n_users % 64] * (n_users % 64 > 0)
        for user in users:
            want = self.per_user_logits(model, graph, corpus, user)
            assert np.max(np.abs(got[user] - want)) <= 1e-12, user
            assert scorer.logits(user) is got[user]

    def test_users_outside_the_graph_or_corpus_raise_as_per_user(self, acceptance_world):
        env, graph = acceptance_world
        model = self.scored_model(graph)
        corpus = PathCorpus(env.corpus.metapaths)
        corpus.restore_user(env.users[0], env.corpus.snapshot_user(env.users[0]))
        scorer = PolicyScorer(model, graph, corpus)
        for user in (NodeRef(U, graph.node_count(U)), env.users[1]):
            with pytest.raises((ValueError, KeyError)) as per_user:
                self.per_user_logits(model, graph, corpus, user)
            with pytest.raises(per_user.type) as batched:
                scorer.logits(user)
            assert str(batched.value) == str(per_user.value)
        assert list(scorer._cache) == [env.users[0]]


# -- the batched builder ---------------------------------------------------------


def per_row_stack(corpus, users, mps):
    """The users' (B, P, W) keys from one ``metapath_neighbors`` call per
    user and meta-path, padded with -1 to the longest."""
    rows = [[metapath_neighbors(corpus, user, mp).tolist() for mp in mps] for user in users]
    width = max(len(row) for user_rows in rows for row in user_rows)
    return np.array([[row + [-1] * (width - len(row)) for row in user_rows] for user_rows in rows],
                    dtype=np.int64)


class TestNeighborhoodKeys:
    def test_every_chunk_of_the_serve_world_matches_per_row(self):
        ds = generate_synthetic(
            SynthConfig(users=2000, concepts=500, clusters=50, courses=100, videos=200, seed=7)
        )
        stamps = sorted(c.ts for c in ds.clicks)
        split = temporal_split(ds, stamps[int(0.8 * len(stamps))])
        users = sorted({u for u, _ in split.test_positives}, key=lambda r: r.index)
        mps = builtin_metapaths()
        corpus = PathCorpus.build(split.train.graph, users, mps, n=10, max_len=5,
                                  rng=np.random.default_rng(0))
        assert len(users) > 1000
        for lo in range(0, len(users), PolicyScorer.CHUNK):
            chunk = users[lo : lo + PolicyScorer.CHUNK]
            keys = neighborhood_keys(corpus, chunk, mps)
            assert keys.dtype == np.int64 and keys.flags.c_contiguous
            assert np.array_equal(keys, per_row_stack(corpus, chunk, mps))

    def test_empty_bags_and_unequal_walk_counts(self):
        mps = builtin_metapaths()
        corpus = PathCorpus(mps)
        a, b, c = (NodeRef(U, i) for i in (3, 0, 7))
        corpus.restore_user(a, {
            1: [],
            2: [[3, 4, 1, 4, 3]],
            3: [[3, 1, 2, 1, 5], [3, 1, 2, 1, 5], [3, 0, 9, 2, 3]],
            4: [[3, 2, 6, 0, 3]] * 10,
        })
        corpus.restore_user(b, {
            1: [[0, 4, 3], [0, 1, 0], [0, 4, 2], [0, 0, 0]],
            2: [],
            3: [[0, 1, 1, 1, 0]],
            4: [],
        })
        corpus.restore_user(c, {mp.id: [] for mp in mps})
        for users in ([a, b, c], [c, a], [b, c], [c, c], [a], [c]):
            keys = neighborhood_keys(corpus, users, mps)
            assert np.array_equal(keys, per_row_stack(corpus, users, mps)), users
        # a user whose bags are all empty is its own neighborhood
        assert neighborhood_keys(corpus, [c], mps).tolist() == [[[node_key(c)]] * len(mps)]

    def test_one_user_stacks_neighbor_lists(self, acceptance_world, monkeypatch):
        # a request or a training user takes the per-row path; a chunk does not
        env, _ = acceptance_world
        calls = []

        def counting(corpus, user, mp):
            calls.append((user, mp.id))
            return metapath_neighbors(corpus, user, mp)

        monkeypatch.setattr(embedding, "metapath_neighbors", counting)
        user = env.users[1]
        keys = neighborhood_keys(env.corpus, [user], env.corpus.metapaths)
        assert calls == [(user, mp.id) for mp in env.corpus.metapaths]
        calls.clear()
        chunk = neighborhood_keys(env.corpus, env.users[1:4], env.corpus.metapaths)
        assert calls == []
        assert np.array_equal(chunk[:1, :, : keys.shape[2]], keys)
        assert np.all(chunk[:1, :, keys.shape[2] :] == -1)


def per_user_loss(tape, leaves, model, corpus, pairs):
    """Mean cross-entropy of (user, target) pairs, one user at a time: the
    user's embedding, the action distribution and the log of the target's
    probability."""
    actions = ActionSet.full(model.policy.n_concepts)
    total = None
    for user, target in pairs:
        u, _ = build_user_embedding(tape, leaves, model.embed, corpus, user)
        dist = build_action_distribution(tape, leaves, model.policy, u, actions)
        nll = tape.scale(tape.log(tape.gather_row(dist, target)), -1.0)
        total = nll if total is None else tape.vecadd(total, nll)
    return tape.scale(total, 1.0 / len(pairs))


def batch_loss(tape, leaves, model, corpus, pairs):
    """The same loss as pretrain builds it: one batched embedding, one
    logit product and the fused cross-entropy."""
    hoods = [neighborhood(corpus, user, model.embed.metapaths) for user, _ in pairs]
    u, _ = build_user_embeddings(tape, leaves, model.embed, hoods)
    logits = policy_logits(tape, leaves, u)
    return tape.cross_entropy(logits, [target for _, target in pairs])


def batch_model(acceptance_world):
    """A model with drawn policy tensors, and a batch holding both
    self-only-fallback users, a repeated pair and a repeated target."""
    env, graph = acceptance_world
    model = init_model(graph, builtin_metapaths(), EmbedConfig(), rng=np.random.default_rng(4))
    rng = np.random.default_rng(6)
    for arr in model.policy.tensors.values():
        arr[...] = rng.normal(size=arr.shape)
    instances = [(u, c) for u in env.users for c in sorted(env.targets[u])]
    drawn = [instances[int(i)] for i in rng.integers(len(instances), size=6)]
    first, last = env.users[0], env.users[-1]
    pairs = [(first, min(env.targets[first])), *drawn, (last, drawn[0][1]), drawn[1]]
    return env, model, pairs


class TestBatchedEmbedding:
    def test_gradients_match_per_user_composition(self, acceptance_world):
        env, model, pairs = batch_model(acceptance_world)
        got = []
        for build in (per_user_loss, batch_loss):
            tape = Tape()
            leaves = model.leaves(tape)
            loss = build(tape, leaves, model, env.corpus, pairs)
            got.append((float(loss.value), tape.gradients(loss, leaves)))
        (want_loss, want), (loss, grads) = got
        assert abs(loss - want_loss) <= 1e-12
        for name in want:
            assert np.max(np.abs(grads[name] - want[name])) <= 1e-12, name

    def test_rows_are_the_single_user_embeddings(self, acceptance_world):
        env, model, pairs = batch_model(acceptance_world)
        users = [user for user, _ in pairs]
        tape = Tape(record=False)
        leaves = model.leaves(tape)
        hoods = [neighborhood(env.corpus, user, model.embed.metapaths) for user in users]
        u, beta = build_user_embeddings(tape, leaves, model.embed, hoods)
        assert u.value.shape == (len(users), model.embed.cfg.dim)
        assert beta.value.shape == (len(users), len(model.embed.metapaths))
        for b, user in enumerate(users):
            u1, beta1 = build_user_embedding(tape, leaves, model.embed, env.corpus, user)
            assert np.max(np.abs(u.value[b] - u1.value)) <= 1e-12, user
            assert np.max(np.abs(beta.value[b] - beta1.value)) <= 1e-12, user

    def test_each_distinct_node_is_gathered_once(self, acceptance_world, monkeypatch):
        # the batch repeats a user, and its users share nodes
        env, model, pairs = batch_model(acceptance_world)
        params = model.embed
        users = [user for user, _ in pairs]
        assert len(set(users)) < len(users)
        per_user = [
            {ref for mp in params.metapaths for ref in unfused.neighbor_refs(env.corpus, user, mp)}
            for user in set(users)
        ]
        nodes = set().union(*per_user)
        assert sum(map(len, per_user)) > len(nodes)
        gathered = []
        gather_rows = Tape.gather_rows

        def recording(tape, x, idx):
            gathered.append((x, np.asarray(idx).tolist()))
            return gather_rows(tape, x, idx)

        monkeypatch.setattr(Tape, "gather_rows", recording)
        tape = Tape()
        leaves = model.leaves(tape)
        hoods = [neighborhood(env.corpus, user, params.metapaths) for user in users]
        build_user_embeddings(tape, leaves, params, hoods)
        table_type = {id(leaves[f"feat.{nt.value}"]): nt for nt in NodeType}
        ids = {table_type[id(x)]: idx for x, idx in gathered}
        assert len(ids) == len(gathered)
        for nt in NodeType:
            want = sorted(ref.index for ref in nodes if ref.type is nt)
            got = ids.get(nt, [])
            assert len(set(got)) == len(got), nt
            assert sorted(got) == want, nt

    def test_matches_unfused(self, acceptance_world):
        # 0.5 |u_b|^2 + c . beta_b summed over the batch, against the same
        # sum of the unfused composition, user by user
        env, model, pairs = batch_model(acceptance_world)
        params = model.embed
        users = [user for user, _ in pairs]
        tape = Tape()
        leaves = _leaves(tape, params)
        hoods = [neighborhood(env.corpus, user, params.metapaths) for user in users]
        u, beta = build_user_embeddings(tape, leaves, params, hoods)
        c = tape.leaf(np.linspace(-1.0, 1.0, len(params.metapaths)))
        loss = None
        for b in range(len(users)):
            u_b = tape.gather_row(u, b)
            term = tape.vecadd(
                tape.scale(unfused.dot(tape, u_b, u_b), 0.5),
                unfused.dot(tape, tape.gather_row(beta, b), c),
            )
            loss = term if loss is None else tape.vecadd(loss, term)
        grads = tape.gradients(loss, leaves)
        tape = Tape()
        leaves = _leaves(tape, params)
        total = None
        for user in users:
            *_, term = embedding_loss(
                tape, leaves, params, env.corpus, user, unfused.user_embedding
            )
            total = term if total is None else tape.vecadd(total, term)
        want = tape.gradients(total, leaves)
        assert abs(float(loss.value) - float(total.value)) <= 1e-12
        scale = max(np.max(np.abs(g)) for g in want.values())
        for name, g in want.items():
            assert np.max(np.abs(grads[name] - g)) <= 1e-9 * scale, name

    def test_cached_user_embeds_from_new_bags(self):
        ds = generate_synthetic(SynthConfig(users=20, concepts=10, clusters=2, courses=4,
                                            videos=8, clicks_per_user=8, seed=2))
        hold = holdout_targets(ds, 0.5)
        mps = builtin_metapaths()
        env = make_training_env(hold.graph, hold.targets, mps, walks_per_path=5,
                                max_walk_len=5, rng=np.random.default_rng(2))
        params = EmbedParams(EmbedConfig(dim=8, heads=2), hold.graph.node_counts, mps,
                             np.random.default_rng(3))
        user = env.users[0]

        same = np.array_equal

        def fresh_copy():
            """A corpus holding the user's bags as they are now, and no keys."""
            copy = PathCorpus(mps)
            copy.restore_user(user, env.corpus.snapshot_user(user))
            return copy

        def embeds_from_corpus():
            tape = Tape(record=False)
            leaves = _leaves(tape, params)
            u, _ = build_user_embedding(tape, leaves, params, env.corpus, user)
            want, _ = build_user_embedding(tape, leaves, params, fresh_copy(), user)
            return np.array_equal(u.value, want.value)

        first = neighborhood(env.corpus, user, mps)
        assert neighborhood(env.corpus, user, mps) is first
        assert same(first, neighborhood(fresh_copy(), user, mps))
        saved = env.corpus.snapshot_user(user)
        env.corpus.resample_user(env.graph, user, n=5, max_len=5, rng=np.random.default_rng(9))
        resampled = neighborhood(env.corpus, user, mps)
        assert not same(resampled, first)
        assert same(resampled, neighborhood(fresh_copy(), user, mps))
        assert embeds_from_corpus()
        env.corpus.restore_user(user, saved)
        restored = neighborhood(env.corpus, user, mps)
        assert restored is not first and same(restored, first)
        assert embeds_from_corpus()
        # another meta-path list is another neighborhood, kept beside it
        one_path = neighborhood(env.corpus, user, mps[:1])
        assert same(one_path, neighborhood(fresh_copy(), user, mps[:1]))
        assert neighborhood(env.corpus, user, mps) is restored
