import math

import numpy as np
import pytest

import unfused

from hincrec.autodiff import Tape, grad_check
from hincrec.data import holdout_targets, temporal_split
from hincrec.embedding import (
    EmbedConfig,
    EmbedParams,
    build_user_embedding,
    node_aggregate,
    node_attention,
    path_attention,
    project,
    user_embedding,
)
from hincrec.graph import HinGraph, NodeRef, NodeType, Relation
from hincrec.metapath import PathCorpus, builtin_metapaths
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
        for mp in corpus.metapaths:
            corpus._bags[(user, mp.id)] = []
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
    g.add_edge(users[1], concepts[0], Relation.CLICK, ts=1)
    g.add_edge(users[1], concepts[1], Relation.CLICK, ts=2)
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
        emb = user_embedding(params, g, corpus, users[0], rng=np.random.default_rng(1))
        agg = node_aggregate(params, users[0], params.metapaths[0], corpus,
                             rng=np.random.default_rng(2))
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
        emb = user_embedding(params, g, corpus, user, rng=np.random.default_rng(3))
        per_path = node_aggregate(params, user, params.metapaths[0], corpus)
        assert np.allclose(emb.vector, per_path, atol=1e-12)
        assert abs(emb.beta.sum() - 1.0) < 1e-9

    def test_embedding_changes_after_reachable_click(self):
        g, users, concepts, params = build_line_world()
        corpus = PathCorpus.build(g, users, params.metapaths, n=4,
                                  rng=np.random.default_rng(0))
        before = user_embedding(params, g, corpus, users[0], rng=np.random.default_rng(5))
        # wire U0 into the line so MP1 walks U0-K0-U1 become reachable
        assert g.add_edge(users[0], concepts[0], Relation.CLICK)
        corpus.resample_user(g, users[0], n=4, rng=np.random.default_rng(6))
        after = user_embedding(params, g, corpus, users[0], rng=np.random.default_rng(5))
        assert np.linalg.norm(after.vector - before.vector) > 0

    def test_deterministic_given_seed(self):
        g, users, _, params = build_line_world()
        corpus = PathCorpus.build(g, users, params.metapaths, n=4,
                                  rng=np.random.default_rng(0))
        a = user_embedding(params, g, corpus, users[0], rng=np.random.default_rng(7))
        b = user_embedding(params, g, corpus, users[0], rng=np.random.default_rng(7))
        assert np.array_equal(a.vector, b.vector)
        assert np.array_equal(a.beta, b.beta)

    def test_independent_of_rng(self):
        # U0's bags hold walks with different node sets, so a per-call walk
        # draw would make the embedding depend on the rng
        g, users, concepts, params = build_line_world()
        g.add_edge(users[0], concepts[0], Relation.CLICK, ts=3)
        corpus = PathCorpus.build(g, users, params.metapaths, n=6,
                                  rng=np.random.default_rng(0))
        mp2_sets = {frozenset(w) for w in corpus.bag(users[0], 2)}
        assert len(mp2_sets) > 1
        a = user_embedding(params, g, corpus, users[0], rng=np.random.default_rng(1))
        b = user_embedding(params, g, corpus, users[0], rng=np.random.default_rng(2))
        assert np.array_equal(a.vector, b.vector)
        assert np.array_equal(a.beta, b.beta)

    def test_policy_scorer_independent_of_scoring_order(self):
        g, users, concepts, _ = build_line_world()
        g.add_edge(users[0], concepts[0], Relation.CLICK, ts=3)
        cfg = EmbedConfig(dim=4, heads=2, feat_dim=3, path_hidden=5)
        model = init_model(g, builtin_metapaths(), cfg, rng=np.random.default_rng(0))
        # zero-initialised scores would give zero logits for every user
        model.policy.tensors["policy.scores"] = np.random.default_rng(1).normal(
            size=model.policy.tensors["policy.scores"].shape
        )
        corpus = PathCorpus.build(g, users, builtin_metapaths(), n=6,
                                  rng=np.random.default_rng(0))
        forward = PolicyScorer(model, g, corpus, rng=np.random.default_rng(4))
        backward = PolicyScorer(model, g, corpus, rng=np.random.default_rng(4))
        got_fwd = [forward.logits(u) for u in users]
        got_bwd = [backward.logits(u) for u in reversed(users)][::-1]
        for f, b in zip(got_fwd, got_bwd):
            assert np.array_equal(f, b)

    def test_output_dimension(self):
        g, users, _, params = build_line_world(dim=8, heads=4, feat_dim=3)
        corpus = PathCorpus.build(g, users, params.metapaths, n=2,
                                  rng=np.random.default_rng(0))
        emb = user_embedding(params, g, corpus, users[0], rng=np.random.default_rng(1))
        assert emb.vector.shape == (8,)

    def test_average_path_scores_flag(self):
        g, users, _, params = build_line_world(average_path_scores=True)
        corpus = PathCorpus.build(g, users, params.metapaths, n=3,
                                  rng=np.random.default_rng(0))
        emb = user_embedding(params, g, corpus, users[0], rng=np.random.default_rng(2))
        assert abs(emb.beta.sum() - 1.0) < 1e-9

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError):
            EmbedConfig(dim=10, heads=4)


class TestEmbeddingGradients:
    def test_grad_check_squared_norm(self):
        # d(0.5 * |u|^2)/d(theta) for every embedding tensor on a small graph
        g, users, concepts, params = build_line_world(seed=3)
        g.add_edge(users[0], concepts[0], Relation.CLICK, ts=3)
        corpus = PathCorpus.build(g, users, params.metapaths, n=3,
                                  rng=np.random.default_rng(1))

        def f(tape, leaves):
            u, _ = build_user_embedding(
                tape, leaves, params, corpus, users[0], rng=np.random.default_rng(11)
            )
            return tape.scale(tape.dot(u, u), 0.5)

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
    return u, beta, tape.vecadd(tape.scale(tape.dot(u, u), 0.5), tape.dot(beta, c))


class TestFusedMatchesUnfused:
    @pytest.mark.parametrize("average", [False, True])
    def test_every_training_user(self, acceptance_world, average):
        env, graph = acceptance_world
        params = EmbedParams(
            EmbedConfig(average_path_scores=average), graph.node_counts,
            builtin_metapaths(), np.random.default_rng(3),
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
    @pytest.mark.parametrize("tied", [False, True])
    def test_equal_to_tape_logits(self, acceptance_world, tied):
        env, graph = acceptance_world
        model = init_model(graph, builtin_metapaths(), EmbedConfig(),
                           rng=np.random.default_rng(2), tie_concept_features=tied)
        rng = np.random.default_rng(5)
        for arr in model.policy.tensors.values():
            arr[...] = rng.normal(size=arr.shape)
        scorer = PolicyScorer(model, graph, env.corpus)
        for user in env.users[:20]:
            tape = Tape()
            leaves = model.leaves(tape)
            u, _ = build_user_embedding(tape, leaves, model.embed, env.corpus, user)
            want = policy_logits(tape, leaves, model.policy, u).value
            assert np.array_equal(scorer.logits(user), want)
