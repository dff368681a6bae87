"""Pretraining, the reinforcement loop, and its episode invariants."""

import numpy as np
import pytest

import unfused
from oracles import TextbookAdam

from hincrec import embedding, training
from hincrec.embedding import (
    EmbedConfig,
    build_user_embedding,
    build_user_embeddings,
    neighborhood,
    user_embedding,
)
from hincrec.graph import HinGraph, NodeRef, NodeType, Relation
from hincrec.metapath import builtin_metapaths, metapath_neighbors
from hincrec.metrics import PolicyScorer
from hincrec.model import FlatParams, ModelParams, init_model
from hincrec.synth import SynthConfig, generate_synthetic
from hincrec.data import holdout_targets
from hincrec.autodiff import Tape
from hincrec.policy import ActionSet, build_action_distribution, policy_logits
from hincrec.training import (
    Adam,
    FirstStep,
    first_steps,
    make_training_env,
    objective_and_gradients,
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


def reinforce_world(seed=5):
    """The benchmark's 4x world (K = 200), with a drawn score table."""
    ds = generate_synthetic(SynthConfig(
        users=800, concepts=200, clusters=20, courses=40, videos=80, seed=7
    ))
    hold = holdout_targets(ds, 0.5)
    rng = np.random.default_rng(seed)
    env = make_training_env(
        hold.graph, hold.targets, builtin_metapaths(),
        walks_per_path=10, max_walk_len=5, rng=rng,
    )
    model = init_model(hold.graph, builtin_metapaths(), EmbedConfig(), rng=rng)
    scores = model.policy.tensors["policy.scores"]
    scores[...] = rng.normal(0.0, 1.0 / np.sqrt(scores.shape[1]), scores.shape)
    return env, model, rng


def snapshot(model):
    return {k: v.copy() for k, v in model.tensors.items()}


def steer_onto_unwired(env, model, user, n):
    """Make the greedy policy pick, in order, `n` concepts that `user` has
    not clicked, and make them the user's only targets, so each of the
    first `n` steps is correct and adds a click edge."""
    unwired = sorted(
        c for c in range(env.n_concepts)
        if not env.graph.has_edge(user, NodeRef(K, c), Relation.CLICK)
    )[:n]
    assert len(unwired) == n
    for rank, c in enumerate(unwired):
        model.policy.tensors["policy.bias"][c] = 10.0 - rank
    env.targets = {user: frozenset(unwired)}
    return unwired


def count_neighbor_lists(monkeypatch):
    """Records (corpus, user) for every neighbor list that the embedding
    computes from now on."""
    calls = []

    def counting(corpus, user, mp):
        calls.append((corpus, user))
        return metapath_neighbors(corpus, user, mp)

    monkeypatch.setattr(embedding, "metapath_neighbors", counting)
    return calls


def user_bags(env, user):
    return {k: walks.tolist() for k, walks in env.corpus.snapshot_user(user).items()}


def assert_tensors_equal(a, b):
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k], equal_nan=True), k


def poison(model):
    """A NaN in one entry of the path scorer, which every user reaches."""
    model.embed.tensors["path.W"][0, 0] = np.nan


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
        unwired = steer_onto_unwired(env, model, user, 4)
        ep = play_episode(model, env, user, horizon=4, epsilon=0.0, gamma=0.9, rng=rng)
        assert [s.action for s in ep.steps] == unwired
        assert len(ep.added_edges) == 4
        assert env.graph.snapshot_digest() != base_digest
        rollback_episode(env, ep)
        assert env.graph.snapshot_digest() == base_digest

    def test_rewalks_leave_the_shared_corpus_alone(self):
        env, model, rng = small_world(seed=3)
        user = env.users[0]
        unwired = steer_onto_unwired(env, model, user, 2)
        bags = user_bags(env, user)
        ep = play_episode(model, env, user, horizon=2, epsilon=0.0, gamma=0.9, rng=rng)
        assert ep.embed_count == 3
        assert all(env.graph.has_edge(user, NodeRef(K, c), Relation.CLICK) for c in unwired)
        assert user_bags(env, user) == bags
        rollback_episode(env, ep)

    def test_first_embedding_reads_the_kept_arrays(self, monkeypatch):
        env, model, rng = small_world(seed=3)
        user = env.users[0]
        steer_onto_unwired(env, model, user, 2)
        mps = model.embed.metapaths
        kept = neighborhood(env.corpus, user, mps)
        keys = kept.copy()
        calls = count_neighbor_lists(monkeypatch)
        ep = play_episode(model, env, user, horizon=2, epsilon=0.0, gamma=0.9, rng=rng)
        assert ep.embed_count == 3
        # only the two re-walked embeddings compute neighbor lists, from
        # the episode's own corpus
        assert len(calls) == 2 * len(mps)
        assert all(corpus is not env.corpus and who == user for corpus, who in calls)
        (still_kept,) = env.corpus.kept(user).values()
        assert still_kept is kept
        assert np.array_equal(kept, keys)
        rollback_episode(env, ep)

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

    def test_nan_parameter_stops_before_the_update(self):
        env, model, rng = small_world(seed=5)
        poison(model)
        before = snapshot(model)
        digest = env.graph.snapshot_digest()
        with pytest.raises(FloatingPointError, match="non-finite pretrain loss"):
            pretrain(model, env, episodes=3, lr=1e-3, batch=4, rng=rng)
        assert_tensors_equal(snapshot(model), before)
        assert env.graph.snapshot_digest() == digest

    def test_neighborhoods_are_computed_on_first_use(self, monkeypatch):
        env, model, rng = small_world(seed=5)
        calls = count_neighbor_lists(monkeypatch)
        pretrain(model, env, episodes=2, lr=1e-3, batch=3, rng=rng)
        kept = {user for user in env.users if env.corpus.kept(user)}
        assert 0 < len(kept) <= 6
        assert sorted(calls, key=lambda c: c[1].index) == sorted(
            ((env.corpus, user) for user in kept for _ in model.embed.metapaths),
            key=lambda c: c[1].index,
        )
        ids = tuple(mp.id for mp in model.embed.metapaths)
        assert all(list(env.corpus.kept(user)) == [ids] for user in kept)
        calls.clear()
        pretrain(model, env, episodes=1, lr=1e-3, batch=3, rng=rng)
        assert len(calls) <= 3 * len(model.embed.metapaths)
        assert {user for _, user in calls}.isdisjoint(kept)

    def test_defaults_match_contract(self):
        import inspect

        from hincrec.training import pretrain as fn

        sig = inspect.signature(fn)
        assert sig.parameters["episodes"].default == 10_000
        assert sig.parameters["lr"].default == 0.001
        assert sig.parameters["batch"].default == 8

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_is_rejected(self, batch):
        env, model, rng = small_world(seed=7)
        theta = model.theta.copy()
        with pytest.raises(ValueError, match="batch must be >= 1"):
            pretrain(model, env, episodes=4, batch=batch, rng=rng)
        assert model.theta.tobytes() == theta.tobytes()

    @pytest.mark.parametrize("episodes", [-1, -5])
    def test_negative_episodes_are_rejected_before_any_draw(self, episodes):
        env, model, rng = small_world(seed=7)
        theta, state = model.theta.copy(), rng.bit_generator.state
        with pytest.raises(ValueError, match=f"episodes must be >= 0, got {episodes}"):
            pretrain(model, env, episodes=episodes, rng=rng)
        assert model.theta.tobytes() == theta.tobytes()
        assert rng.bit_generator.state == state


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
        assert sig.parameters["batch"].default == 8

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_is_rejected(self, horizon):
        env, model, rng = small_world(seed=7)
        theta = model.theta.copy()
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            train_rl(model, env, episodes=4, horizon=horizon, rng=rng)
        assert model.theta.tobytes() == theta.tobytes()

    @pytest.mark.parametrize("episodes", [-1, -5])
    def test_negative_episodes_are_rejected_before_any_draw(self, episodes):
        env, model, rng = small_world(seed=7)
        theta, state = model.theta.copy(), rng.bit_generator.state
        digest = env.graph.snapshot_digest()
        with pytest.raises(ValueError, match=f"episodes must be >= 0, got {episodes}"):
            train_rl(model, env, episodes=episodes, rng=rng)
        assert model.theta.tobytes() == theta.tobytes()
        assert rng.bit_generator.state == state
        assert env.graph.snapshot_digest() == digest

    def test_graph_restored_after_training(self):
        env, model, rng = small_world(seed=8)
        digest = env.graph.snapshot_digest()
        train_rl(model, env, episodes=40, horizon=5, rng=rng)
        assert env.graph.snapshot_digest() == digest

    def test_failed_update_restores_graph_and_params(self, monkeypatch):
        env, model, rng = small_world(seed=3)
        user = env.users[0]
        # two correct steps write click edges and re-walk the user before
        # the update fails
        steer_onto_unwired(env, model, user, 2)
        env.users = [user]
        digest = env.graph.snapshot_digest()
        bags = user_bags(env, user)
        before = snapshot(model)
        edges_rolled_back = []

        def recording_rollback(env_, episode):
            edges_rolled_back.append(len(episode.added_edges))
            rollback_episode(env_, episode)

        monkeypatch.setattr(training, "rollback_episode", recording_rollback)
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            train_rl(model, env, episodes=1, horizon=2, epsilon=0.0,
                     lam=float("nan"), rng=rng)
        assert edges_rolled_back == [2]
        assert env.graph.snapshot_digest() == digest
        assert user_bags(env, user) == bags
        assert_tensors_equal(snapshot(model), before)

    def test_nan_parameter_stops_before_the_update(self):
        env, model, rng = small_world(seed=7)
        poison(model)
        before = snapshot(model)
        digest = env.graph.snapshot_digest()
        bags = {user: user_bags(env, user) for user in env.users}
        with pytest.raises(FloatingPointError, match="non-finite gradient for "):
            train_rl(model, env, episodes=3, horizon=4, rng=rng)
        assert_tensors_equal(snapshot(model), before)
        assert env.graph.snapshot_digest() == digest
        assert {user: user_bags(env, user) for user in env.users} == bags

    def test_failed_rollout_removes_its_edges(self, monkeypatch):
        env, model, rng = small_world(seed=3)
        user = env.users[0]
        steer_onto_unwired(env, model, user, 2)
        env.users = [user]
        digest = env.graph.snapshot_digest()
        bags = user_bags(env, user)
        calls = []

        def failing_second_embedding(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("injected")
            return build_user_embedding(*args, **kwargs)

        monkeypatch.setattr(training, "build_user_embedding", failing_second_embedding)
        with pytest.raises(RuntimeError, match="injected"):
            train_rl(model, env, episodes=1, horizon=2, epsilon=0.0, rng=rng)
        assert len(calls) == 2
        assert env.graph.snapshot_digest() == digest
        assert user_bags(env, user) == bags

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
        from hincrec.policy import ActionSet, select_action
        from unfused import action_distribution

        emb = user_embedding(model.embed, g, env.corpus, user)
        dist = action_distribution(model.policy, emb, ActionSet.full(3))
        assert select_action(dist, ActionSet.full(3), 0.0, np.random.default_rng(2)) == 2

    def test_determinism_same_seed_same_params(self):
        results = []
        for _ in range(2):
            env, model, rng = small_world(seed=9)
            model, _ = pretrain(model, env, episodes=10, lr=1e-3, batch=4, rng=rng)
            model, _ = train_rl(model, env, episodes=10, horizon=4, rng=rng)
            results.append(snapshot(model))
        assert_tensors_equal(results[0], results[1])


def count_adam_steps(monkeypatch):
    """Records the gradients of every Adam step from now on, copied by
    tensor name out of the flat gradient that the step reads."""
    steps = []
    real = Adam.step

    def counting(self, maximize=False):
        steps.append({k: g.copy() for k, g in self.params.grads.items()})
        return real(self, maximize)

    monkeypatch.setattr(Adam, "step", counting)
    return steps


def copy_rng(rng):
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    return twin


class TestBatchedUpdates:
    def test_one_adam_step_per_batch(self, monkeypatch):
        env, model, rng = small_world(seed=7)
        steps = count_adam_steps(monkeypatch)
        _, stats = train_rl(model, env, episodes=20, horizon=4, batch=8, rng=rng)
        assert len(steps) == 3
        assert len(stats) == 20
        # each episode's time is its update's share: 8, 8 and 4 episodes
        for lo, hi in ((0, 8), (8, 16), (16, 20)):
            assert len({s.seconds for s in stats[lo:hi]}) == 1
        assert stats[0].seconds > 0

    def test_a_batch_of_one_starts_as_one_user_does(self):
        # the first step of an update of one, forward and backward, is bit
        # for bit the single-user embedding and masked distribution
        env, model, rng = small_world(seed=10)
        scores = model.policy.tensors["policy.scores"]
        scores[...] = rng.normal(0.0, 0.5, scores.shape)
        for user in env.users[:5]:
            (first,) = first_steps(model, env, [user])
            tape = Tape()
            leaves = model.leaves(tape)
            u, _ = build_user_embedding(tape, leaves, model.embed, env.corpus, user)
            dist = build_action_distribution(
                tape, leaves, model.policy, u, ActionSet.full(env.n_concepts)
            )
            assert first.u.value[first.row].tobytes() == u.value.tobytes()
            assert first.dists.value[first.row].tobytes() == dist.value.tobytes()
            t = first.tape
            got = t.gradients(t.vsum(t.log(t.take(first.dists, [3]))), first.leaves)
            want = tape.gradients(tape.log(tape.gather_row(dist, 3)), leaves)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), name

    def test_rows_are_cut_only_when_a_later_step_reads_them(self):
        env, model, rng = small_world(seed=7)
        firsts = first_steps(model, env, env.users[:4])
        tape = firsts[0].tape
        assert tape._nodes[-1] is firsts[0].dists
        nodes = len(tape._nodes)
        env.targets = {}  # every pick misses, so each episode ends at its first step
        for b, first in enumerate(firsts):
            play_episode(model, env, env.users[b], 5, 0.0, 0.9, rng, first=first)
        assert len(tape._nodes) == nodes

    def test_a_batch_of_one_is_the_per_episode_loop(self):
        env, model, rng = small_world(seed=10)
        model, _ = pretrain(model, env, episodes=300, lr=1e-2, batch=8, rng=rng)
        ref_model, ref_rng = model.copy(), copy_rng(rng)
        adam, ref_stats = TextbookAdam(lr=1e-2), []
        for _ in range(40):
            user = env.users[int(ref_rng.integers(len(env.users)))]
            episode = play_episode(ref_model, env, user, 5, 0.3, 0.9, ref_rng)
            result = objective_and_gradients(episode, 0.08)
            adam.step(ref_model.tensors, result.grads, maximize=True)
            rollback_episode(env, episode)
            ref_stats.append((episode.total_reward(), len(episode.steps),
                              episode.embed_count, result.value))
        _, stats = train_rl(model, env, episodes=40, horizon=5, epsilon=0.3, lr=1e-2,
                            batch=1, rng=rng)
        assert [(s.total_reward, s.length, s.embed_count, s.objective) for s in stats] == ref_stats
        assert sum(s.embed_count for s in stats) > 40
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for name, want in ref_model.tensors.items():
            assert model.tensors[name].tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_is_rejected(self, batch):
        env, model, rng = small_world(seed=7)
        with pytest.raises(ValueError, match="batch"):
            train_rl(model, env, episodes=4, batch=batch, rng=rng)

    def test_update_equals_the_summed_episode_gradients(self, monkeypatch):
        env, model, rng = small_world(seed=10)
        # a policy that picks held-out clicks, so that episodes re-embed
        model, _ = pretrain(model, env, episodes=300, lr=1e-2, batch=8, rng=rng)
        before = snapshot(model)
        horizon, epsilon, gamma, lam, lr = 5, 0.3, 0.9, 0.08, 1e-2
        ref_model, ref_rng = model.copy(), copy_rng(rng)
        users = [env.users[int(ref_rng.integers(len(env.users)))] for _ in range(8)]
        total, episodes = None, []
        for user in users:
            episode = play_episode(ref_model, env, user, horizon, epsilon, gamma, ref_rng)
            rollback_episode(env, episode)
            grads = objective_and_gradients(episode, lam).grads
            total = grads if total is None else {k: total[k] + g for k, g in grads.items()}
            episodes.append(episode)
        TextbookAdam(lr).step(ref_model.tensors, total, maximize=True)
        digest = env.graph.snapshot_digest()

        steps = count_adam_steps(monkeypatch)
        _, stats = train_rl(model, env, episodes=8, horizon=horizon, gamma=gamma,
                            epsilon=epsilon, lam=lam, lr=lr, batch=8, rng=rng)
        assert [(s.length, s.embed_count) for s in stats] == [
            (len(e.steps), e.embed_count) for e in episodes
        ]
        assert sum(s.embed_count for s in stats) > 8  # some episodes re-embedded
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert env.graph.snapshot_digest() == digest
        # the update ascends the sum of the episodes' objectives, not their mean
        (grads,) = steps
        for name, want in total.items():
            np.testing.assert_allclose(grads[name], want, rtol=1e-10, atol=1e-15, err_msg=name)
        for name, want in ref_model.tensors.items():
            assert not np.array_equal(want, before[name]), name
            np.testing.assert_allclose(model.tensors[name], want, rtol=1e-10, atol=0, err_msg=name)

    @pytest.mark.parametrize("forced", [False, True])
    def test_update_gradient_is_the_per_step_chains(self, monkeypatch, forced):
        # Byte for byte, the update's gradient and each episode's objective
        # are those of a chain of scalar nodes per step (tests/unfused.py).
        # Unforced: the 4x world of the benchmark, with a drawn score table
        # so that logits do not tie. Forced: one user's episodes make two
        # correct steps, so that later steps, re-embedded, are in the sum.
        if forced:
            env, model, rng = small_world(seed=3)
            steer_onto_unwired(env, model, env.users[0], 2)
            env.users = env.users[:3]
            kw = dict(horizon=3, epsilon=0.0)
        else:
            env, model, rng = reinforce_world()
            kw = dict(horizon=20, epsilon=0.18)
        ref_model, ref_rng = model.copy(), copy_rng(rng)
        steps = count_adam_steps(monkeypatch)
        _, stats = train_rl(model, env, episodes=24, batch=8, rng=rng, **kw)
        updates = list(steps)
        adam = TextbookAdam(lr=1e-4)
        for lo, got in zip(range(0, 24, 8), updates, strict=True):
            users = [env.users[int(ref_rng.integers(len(env.users)))] for _ in range(8)]
            played = []
            for user, first in zip(users, first_steps(ref_model, env, users)):
                played.append(play_episode(ref_model, env, user, gamma=0.9, rng=ref_rng,
                                           first=first, **kw))
                rollback_episode(env, played[-1])
            total, objectives = unfused.update_objective(played, 0.08)
            grads = played[0].first.tape.gradients(total, played[0].first.leaves)
            assert [s.objective for s in stats[lo:lo + 8]] == objectives
            for name, want in grads.items():
                assert got[name].tobytes() == want.tobytes(), name
            adam.step(ref_model.tensors, grads, maximize=True)
        if forced:
            assert max(s.length for s in stats) == 3
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_failed_rollout_leaves_no_edge_and_no_step(self, monkeypatch):
        env, model, rng = small_world(seed=3)
        user = env.users[0]
        # every episode makes two correct steps, each writing a click edge
        # and re-embedding the user; the third episode fails at its first
        steer_onto_unwired(env, model, user, 2)
        env.users = [user]
        digest = env.graph.snapshot_digest()
        bags = user_bags(env, user)
        before = snapshot(model)
        steps = count_adam_steps(monkeypatch)
        calls = []

        def failing_fifth_embedding(*args, **kwargs):
            calls.append(1)
            if len(calls) == 5:
                raise RuntimeError("injected")
            return build_user_embedding(*args, **kwargs)

        monkeypatch.setattr(training, "build_user_embedding", failing_fifth_embedding)
        with pytest.raises(RuntimeError, match="injected"):
            train_rl(model, env, episodes=4, horizon=2, epsilon=0.0, batch=4, rng=rng)
        assert len(calls) == 5
        assert steps == []
        assert env.graph.snapshot_digest() == digest
        assert user_bags(env, user) == bags
        assert_tensors_equal(snapshot(model), before)


ADAM_SHAPES = {"w": (3, 4), "b": (5,), "empty": (0, 3), "cube": (2, 1, 3), "s": ()}


def adam_problem(seed):
    rng = np.random.default_rng(seed)
    tensors = {k: rng.normal(size=shape) for k, shape in ADAM_SHAPES.items()}
    grads = [
        {k: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3) for k, shape in ADAM_SHAPES.items()}
        for _ in range(5)
    ]
    return tensors, grads


def flat(per_tensor):
    return np.concatenate([per_tensor[k].ravel() for k in ADAM_SHAPES])


class TestAdam:
    @pytest.mark.parametrize("maximize", [False, True])
    def test_bit_equal_to_textbook_step(self, maximize):
        tensors, grads = adam_problem(0)
        params = FlatParams(tensors)
        adam, ref = Adam(params, lr=1e-2), TextbookAdam(lr=1e-2)
        for g in grads:
            params.grad[...] = flat(g)
            adam.step(maximize=maximize)
            ref.step(tensors, g, maximize=maximize)
            assert adam.t == ref.t
            assert adam._m.tobytes() == flat(ref.m).tobytes()
            assert adam._v.tobytes() == flat(ref.v).tobytes()
            for k in ADAM_SHAPES:
                assert params.views[k].shape == ADAM_SHAPES[k]
                assert params.views[k].tobytes() == tensors[k].tobytes(), k

    def test_updates_the_callers_arrays(self):
        tensors, grads = adam_problem(1)
        params = FlatParams(tensors)
        views = params.views
        before = {k: v.copy() for k, v in views.items()}
        adam = Adam(params, lr=1e-2)
        params.grad[...] = flat(grads[0])
        adam.step()
        for k in ADAM_SHAPES:
            if views[k].size:
                assert np.shares_memory(views[k], params.theta), k
                assert not np.array_equal(views[k], before[k]), k

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_changes_nothing(self, bad):
        tensors, grads = adam_problem(2)
        params = FlatParams(tensors)
        adam = Adam(params, lr=1e-2)
        params.grad[...] = flat(grads[0])
        adam.step()
        theta, m, v = params.theta.copy(), adam._m.copy(), adam._v.copy()
        grads[1]["cube"][1, 0, 2] = bad
        params.grad[...] = flat(grads[1])
        g = params.grad.copy()
        with pytest.raises(FloatingPointError, match="cube"):
            adam.step(maximize=True)
        assert adam.t == 1
        assert adam._m.tobytes() == m.tobytes()
        assert adam._v.tobytes() == v.tobytes()
        assert params.theta.tobytes() == theta.tobytes()
        assert params.grad.tobytes() == g.tobytes()


class TestFlatParameters:
    def test_updates_equal_a_textbook_replay(self):
        # N pretrain updates, then N train_rl updates of 8 episodes, equal
        # byte for byte a replay on a copy of the model that records on
        # plain leaves, reads Tape.gradients and steps the per-tensor
        # textbook Adam, which restarts, as Adam does, with each call.
        n, lr, lam = 30, 1e-2, 0.08
        kw = dict(horizon=5, epsilon=0.3, gamma=0.9)
        env, model, rng = small_world(seed=10)
        ref_model, ref_rng = model.copy(), copy_rng(rng)
        _, losses = pretrain(model, env, episodes=n, lr=lr, batch=8, rng=rng)
        _, stats = train_rl(model, env, episodes=8 * n, lr=lr, lam=lam, batch=8, rng=rng, **kw)

        mps = ref_model.embed.metapaths
        instances = [(u, c) for u in env.users for c in sorted(env.targets[u])]
        adam, ref_losses = TextbookAdam(lr=lr), []
        for _ in range(n):
            picks = [instances[int(ref_rng.integers(len(instances)))] for _ in range(8)]
            tape = Tape()
            leaves = ref_model.leaves(tape)
            hoods = [neighborhood(env.corpus, user, mps) for user, _ in picks]
            u, _ = build_user_embeddings(tape, leaves, ref_model.embed, hoods)
            loss = tape.cross_entropy(policy_logits(tape, leaves, u), [c for _, c in picks])
            adam.step(ref_model.tensors, tape.gradients(loss, leaves))
            ref_losses.append(float(loss.value))
        assert losses == ref_losses

        adam, ref_stats = TextbookAdam(lr=lr), []
        for _ in range(n):
            users = [env.users[int(ref_rng.integers(len(env.users)))] for _ in range(8)]
            tape = Tape()
            leaves = ref_model.leaves(tape)
            hoods = [neighborhood(env.corpus, user, mps) for user in users]
            u, _ = build_user_embeddings(tape, leaves, ref_model.embed, hoods)
            dists = tape.softmax(policy_logits(tape, leaves, u))
            played = []
            for b, user in enumerate(users):
                first = FirstStep(tape, leaves, u, dists, b)
                played.append(play_episode(ref_model, env, user, rng=ref_rng, first=first, **kw))
                rollback_episode(env, played[-1])
            total, values = training._objective(played, lam)
            adam.step(ref_model.tensors, tape.gradients(total, leaves), maximize=True)
            ref_stats += [(e.total_reward(), len(e.steps), e.embed_count, value)
                          for e, (value, _, _) in zip(played, values)]
        assert [(s.total_reward, s.length, s.embed_count, s.objective) for s in stats] == ref_stats
        assert sum(s.embed_count for s in stats) > len(stats)  # later steps re-embedded
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for name, want in ref_model.tensors.items():
            assert model.tensors[name].tobytes() == want.tobytes(), name

    def test_tensors_are_views_of_one_vector(self):
        _, model, _ = small_world(seed=1)
        lo = 0
        for name, arr in model.tensors.items():
            assert arr.base is model.theta, name
            assert arr.ctypes.data == model.theta[lo:].ctypes.data, name
            lo += arr.size
        assert lo == model.theta.size
        twin = model.copy()
        assert twin.theta.tobytes() == model.theta.tobytes()
        assert not np.shares_memory(twin.theta, model.theta)

    def test_tensor_tables_are_read_only_views(self, tmp_path):
        _, model, _ = small_world(seed=1)
        model.save(tmp_path / "model.bin")
        for built in (model, model.copy(), ModelParams.load(tmp_path / "model.bin")):
            theta = built.theta.copy()
            for table in (built.tensors, built.embed.tensors, built.policy.tensors):
                for name, arr in table.items():
                    assert arr is built.views[name], name
                    with pytest.raises(TypeError):
                        table[name] = arr + 1.0
                    assert table[name] is built.views[name], name
            assert list(built.tensors) == [*built.embed.tensors, *built.policy.tensors]
            assert built.theta.tobytes() == theta.tobytes()

    def test_forward_use_allocates_no_training_buffers(self, tmp_path):
        env, model, rng = small_world(seed=2)
        model.save(tmp_path / "model.bin")
        loaded = ModelParams.load(tmp_path / "model.bin")
        PolicyScorer(loaded, env.graph, env.corpus).logits(env.users[0])
        user_embedding(loaded.embed, env.graph, env.corpus, env.users[0])
        assert (loaded.grad, loaded.grads, loaded.moments) == (None, None, None)
        # training allocates them once; a later call zero-fills the same arrays
        pretrain(loaded, env, episodes=2, rng=rng)
        buffers = (loaded.grad, *loaded.moments)
        train_rl(loaded, env, episodes=2, rng=rng)
        assert all(a is b for a, b in zip(buffers, (loaded.grad, *loaded.moments)))
