"""Pretraining, the reinforcement loop, and its episode invariants."""

import numpy as np
import pytest

from hincrec.embedding import EmbedConfig
from hincrec.graph import HinGraph, NodeRef, NodeType, Relation
from hincrec.metapath import builtin_metapaths
from hincrec.model import init_model
from hincrec.synth import SynthConfig, generate_synthetic
from hincrec.data import holdout_targets
from hincrec.training import (
    make_training_env,
    play_episode,
    pretrain,
    rollback_episode,
    train_rl,
)

U, K = NodeType.USER, NodeType.CONCEPT


def small_world(seed=0, dim=8, heads=2):
    cfg = SynthConfig(
        users=20, concepts=10, clusters=2, courses=4, videos=8,
        p_in=0.9, p_out=0.05, clicks_per_user=8, seed=seed,
    )
    ds = generate_synthetic(cfg)
    hold = holdout_targets(ds, 0.5)
    rng = np.random.default_rng(seed)
    env = make_training_env(
        hold.graph, hold.targets, builtin_metapaths(),
        walks_per_path=5, max_walk_len=5, rng=rng,
    )
    model = init_model(
        hold.graph, builtin_metapaths(),
        EmbedConfig(dim=dim, heads=heads, feat_dim=8, path_hidden=16),
        rng=rng,
    )
    return env, model, rng


def snapshot(model):
    return {k: v.copy() for k, v in model.tensors.items()}


def assert_tensors_equal(a, b):
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k]), k


class TestEpisodeInvariants:
    def test_actions_pairwise_distinct(self):
        env, model, rng = small_world()
        for _ in range(20):
            user = env.users[int(rng.integers(len(env.users)))]
            ep = play_episode(model, env, user, horizon=8, epsilon=0.5, gamma=0.9, rng=rng)
            actions = [s.action for s in ep.steps]
            assert len(set(actions)) == len(actions)
            rollback_episode(env, ep)

    def test_termination_rule(self):
        env, model, rng = small_world(seed=1)
        for _ in range(30):
            user = env.users[int(rng.integers(len(env.users)))]
            ep = play_episode(model, env, user, horizon=6, epsilon=0.5, gamma=0.9, rng=rng)
            rewards = [s.reward for s in ep.steps]
            assert len(rewards) <= 6
            if len(rewards) < 6:
                assert rewards[-1] == -1.0
            assert all(r == 1.0 for r in rewards[:-1])
            rollback_episode(env, ep)

    def test_embedding_recomputed_after_each_correct_step_only(self):
        env, model, rng = small_world(seed=2)
        for _ in range(30):
            user = env.users[int(rng.integers(len(env.users)))]
            ep = play_episode(model, env, user, horizon=6, epsilon=0.6, gamma=0.9, rng=rng)
            n_correct = sum(1 for s in ep.steps if s.reward > 0)
            assert ep.embed_count == 1 + n_correct
            rollback_episode(env, ep)

    def test_correct_steps_add_edges_then_rollback(self):
        env, model, rng = small_world(seed=3)
        base_digest = env.graph.snapshot_digest()
        user = env.users[0]
        # force four successes: steer the greedy policy onto unwired targets
        unwired = sorted(
            c for c in range(env.n_concepts)
            if not env.graph.has_edge(user, NodeRef(K, c), Relation.CLICK)
        )[:4]
        assert len(unwired) == 4
        for rank, c in enumerate(unwired):
            model.policy.tensors["policy.bias"][c] = 10.0 - rank
        env.targets = {user: frozenset(unwired)}
        ep = play_episode(model, env, user, horizon=4, epsilon=0.0, gamma=0.9, rng=rng)
        assert [s.action for s in ep.steps] == unwired
        assert len(ep.added_edges) == 4
        assert env.graph.snapshot_digest() != base_digest
        rollback_episode(env, ep)
        assert env.graph.snapshot_digest() == base_digest

    def test_graph_untouched_by_incorrect_episode(self):
        env, model, rng = small_world(seed=4)
        user = env.users[0]
        env.targets = {user: frozenset()}  # nothing is correct
        digest = env.graph.snapshot_digest()
        ep = play_episode(model, env, user, horizon=5, epsilon=0.3, gamma=0.9, rng=rng)
        assert len(ep.steps) == 1
        assert env.graph.snapshot_digest() == digest
        rollback_episode(env, ep)


class TestPretrain:
    def test_zero_episodes_keeps_params(self):
        env, model, rng = small_world(seed=5)
        before = snapshot(model)
        model, losses = pretrain(model, env, episodes=0, lr=1e-3, batch=8, rng=rng)
        assert losses == []
        assert_tensors_equal(before, snapshot(model))

    def test_loss_decreases_on_planted_data(self):
        # oracle: monitor the loss curve over 2000 minibatch episodes
        env, model, rng = small_world(seed=6)
        model, losses = pretrain(model, env, episodes=2000, lr=1e-3, batch=8, rng=rng)
        first_epoch = float(np.mean(losses[:100]))
        last_epoch = float(np.mean(losses[-100:]))
        assert last_epoch < first_epoch

    def test_defaults_match_contract(self):
        import inspect

        from hincrec.training import pretrain as fn

        sig = inspect.signature(fn)
        assert sig.parameters["episodes"].default == 10_000
        assert sig.parameters["lr"].default == 0.001
        assert sig.parameters["batch"].default == 8


class TestTrainRL:
    def test_zero_episodes_keeps_params(self):
        env, model, rng = small_world(seed=7)
        before = snapshot(model)
        model, stats = train_rl(model, env, episodes=0, rng=rng)
        assert stats == []
        assert_tensors_equal(before, snapshot(model))

    def test_defaults_match_contract(self):
        import inspect

        from hincrec.training import train_rl as fn

        sig = inspect.signature(fn)
        assert sig.parameters["horizon"].default == 20
        assert sig.parameters["gamma"].default == 0.9
        assert sig.parameters["epsilon"].default == 0.18
        assert sig.parameters["lam"].default == 0.08
        assert sig.parameters["lr"].default == 1e-4

    def test_graph_restored_after_training(self):
        env, model, rng = small_world(seed=8)
        digest = env.graph.snapshot_digest()
        train_rl(model, env, episodes=40, horizon=5, rng=rng)
        assert env.graph.snapshot_digest() == digest

    def test_toy_convergence_to_correct_concept(self):
        # exhaustive toy: one user, three concepts, one correct answer
        g = HinGraph()
        user = g.add_node(U)
        g.add_nodes(K, 3)
        gt = {user: frozenset([2])}
        rng = np.random.default_rng(0)
        env = make_training_env(g, gt, builtin_metapaths(), walks_per_path=3, rng=rng)
        model = init_model(
            g, builtin_metapaths(),
            EmbedConfig(dim=4, heads=2, feat_dim=3, path_hidden=4),
            rng=rng,
        )
        model, stats = train_rl(
            model, env, episodes=500, horizon=3, epsilon=0.1, lr=0.01, rng=rng
        )
        from hincrec.embedding import user_embedding
        from hincrec.policy import ActionSet, action_distribution, select_action

        emb = user_embedding(model.embed, g, env.corpus, user)
        dist = action_distribution(model.policy, emb, ActionSet.full(3))
        greedy, _ = select_action(dist, ActionSet.full(3), 0.0, np.random.default_rng(2))
        assert greedy == 2

    def test_determinism_same_seed_same_params(self):
        results = []
        for _ in range(2):
            env, model, rng = small_world(seed=9)
            model, _ = pretrain(model, env, episodes=10, lr=1e-3, batch=4, rng=rng)
            model, _ = train_rl(model, env, episodes=10, horizon=4, rng=rng)
            results.append(snapshot(model))
        assert_tensors_equal(results[0], results[1])
