"""Environment step, discounted returns, and the episode objective."""

import math

import numpy as np
import pytest

from unfused import action_distribution

from hincrec.autodiff import Tape
from hincrec.embedding import EmbedConfig, user_embedding
from hincrec.graph import HinGraph, NodeRef, NodeType, Relation
from hincrec.metapath import PathCorpus, builtin_metapaths
from hincrec.model import init_model
from hincrec.policy import ActionSet, build_action_distribution
from hincrec.training import (
    Episode,
    StepRecord,
    discounted_returns,
    first_steps,
    make_training_env,
    objective_and_gradients,
    step,
)

U, K = NodeType.USER, NodeType.CONCEPT


def toy_world(n_concepts=4, targets=(1, 2), seed=0):
    g = HinGraph()
    users = g.add_nodes(U, 2)
    concepts = g.add_nodes(K, n_concepts)
    g.add_edge(users[0], concepts[0], Relation.CLICK)
    g.add_edge(users[1], concepts[0], Relation.CLICK)
    gt = {users[0]: frozenset(targets)}
    env = make_training_env(
        g, gt, builtin_metapaths(), walks_per_path=3, rng=np.random.default_rng(seed)
    )
    model = init_model(
        g,
        builtin_metapaths(),
        EmbedConfig(dim=4, heads=2, feat_dim=3, path_hidden=4),
        rng=np.random.default_rng(seed),
    )
    return g, users, env, model


class TestStep:
    def test_correct_action(self):
        g, users, env, _ = toy_world()
        before = g.edge_count()
        reward, mutated = step(g, env.targets, users[0], 1)
        assert (reward, mutated) == (1.0, True)
        assert g.edge_count() == before + 1
        assert g.has_edge(users[0], NodeRef(K, 1), Relation.CLICK)

    def test_incorrect_action_no_mutation(self):
        g, users, env, _ = toy_world()
        digest = g.snapshot_digest()
        reward, mutated = step(g, env.targets, users[0], 3)
        assert (reward, mutated) == (-1.0, False)
        assert g.snapshot_digest() == digest

    def test_two_correct_actions_two_edges(self):
        g, users, env, _ = toy_world(targets=(1, 2))
        assert step(g, env.targets, users[0], 1) == (1.0, True)
        assert step(g, env.targets, users[0], 2) == (1.0, True)
        assert g.has_edge(users[0], NodeRef(K, 1), Relation.CLICK)
        assert g.has_edge(users[0], NodeRef(K, 2), Relation.CLICK)

    def test_unknown_user_is_incorrect(self):
        g, users, env, _ = toy_world()
        assert step(g, env.targets, users[1], 1) == (-1.0, False)


class TestReturns:
    def test_single_reward(self):
        for gamma in (0.0, 0.5, 1.0):
            assert discounted_returns([1.0], gamma) == [1.0]

    def test_closed_form(self):
        assert discounted_returns([1.0, 1.0, -1.0], 0.5) == [1.25, 0.5, -1.0]

    def test_undiscounted(self):
        assert discounted_returns([1.0, -1.0], 1.0) == [0.0, -1.0]

    def test_recursion_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            rewards = list(rng.choice([-1.0, 1.0], size=rng.integers(1, 12)))
            gamma = float(rng.random())
            rets = discounted_returns(rewards, gamma)
            for t in range(len(rewards) - 1):
                assert rets[t] == rewards[t] + gamma * rets[t + 1]  # bitwise
            assert rets[-1] == rewards[-1]

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            discounted_returns([1.0], 1.5)


def scripted_episode(model, env, user, actions_rewards, gamma=0.9):
    """Record an episode with a forced action sequence (graph untouched):
    an update of one, whose first step is the user's row of `first_steps`
    and whose later steps mask the actions taken before them, over the
    user's row of the first step's embeddings, cut when first read."""
    (first,) = first_steps(model, env, [user])
    actions = ActionSet.full(env.n_concepts)
    steps, u = [], None
    for action, reward in actions_rewards:
        dist = None
        if steps:
            if u is None:
                u = first.tape.gather_row(first.u, first.row)
            dist = build_action_distribution(first.tape, first.leaves, model.policy, u, actions)
        steps.append(StepRecord(action, reward, dist))
        actions = actions.shrink(action)
    return Episode(
        user=user,
        first=first,
        steps=steps,
        gamma=gamma,
        added_edges=[],
        embed_count=1,
    )


def numeric_grad_of_logp(model, env, user, action, eps=1e-5):
    """Finite-difference gradient of log pi(action | u) over all tensors."""
    from hincrec.embedding import build_user_embedding

    def value():
        tape = Tape(record=False)
        leaves = model.leaves(tape)
        u_var, _ = build_user_embedding(tape, leaves, model.embed, env.corpus, user)
        dist = build_action_distribution(
            tape, leaves, model.policy, u_var, ActionSet.full(env.n_concepts)
        )
        return float(tape.log(tape.gather_row(dist, action)).value)

    grads = {}
    for name, arr in model.tensors.items():
        g = np.zeros_like(arr)
        for i in range(arr.size):
            keep = arr.flat[i]
            arr.flat[i] = keep + eps
            fp = value()
            arr.flat[i] = keep - eps
            fm = value()
            arr.flat[i] = keep
            g.flat[i] = (fp - fm) / (2 * eps)
        grads[name] = g
    return grads


class TestObjective:
    def test_positive_reward_ascends_logp(self):
        # oracle: finite-difference gradient of log pi; ascent directions align
        g, users, env, model = toy_world(n_concepts=3, targets=(1,))
        # make the policy non-degenerate so gradients are nonzero
        model.policy.tensors["policy.scores"][:] = np.random.default_rng(2).normal(
            0, 0.3, model.policy.tensors["policy.scores"].shape
        )
        episode = scripted_episode(model, env, users[0], [(1, 1.0)])
        result = objective_and_gradients(episode, lam=0.0)
        fd = numeric_grad_of_logp(model, env, users[0], 1)
        dot = sum(np.vdot(result.grads[k], fd[k]) for k in fd)
        assert dot > 0

    def test_negative_reward_descends_logp(self):
        g, users, env, model = toy_world(n_concepts=3, targets=(1,))
        model.policy.tensors["policy.scores"][:] = np.random.default_rng(2).normal(
            0, 0.3, model.policy.tensors["policy.scores"].shape
        )
        episode = scripted_episode(model, env, users[0], [(2, -1.0)])
        result = objective_and_gradients(episode, lam=0.0)
        fd = numeric_grad_of_logp(model, env, users[0], 2)
        dot = sum(np.vdot(result.grads[k], fd[k]) for k in fd)
        assert dot < 0

    def test_entropy_extremes(self):
        g, users, env, model = toy_world(n_concepts=4)
        # uniform policy: zero parameters give equal logits
        episode = scripted_episode(model, env, users[0], [(0, -1.0)])
        result = objective_and_gradients(episode, lam=0.08)
        assert result.entropy_raw == pytest.approx(-math.log(4), abs=1e-9)

        # near-deterministic policy: one huge bias
        model.policy.tensors["policy.bias"][2] = 60.0
        episode = scripted_episode(model, env, users[0], [(2, 1.0)])
        result = objective_and_gradients(episode, lam=0.08)
        assert abs(result.entropy_raw) < 1e-9

    def test_entropy_over_available_only(self):
        g, users, env, model = toy_world(n_concepts=4)
        episode = scripted_episode(
            model, env, users[0], [(0, 1.0), (1, 1.0)]
        )
        result = objective_and_gradients(episode, lam=0.08)
        # step 1: uniform over 4; step 2: uniform over remaining 3
        assert result.entropy_raw == pytest.approx(-math.log(4) - math.log(3), abs=1e-9)

    def test_objective_combines_terms(self):
        g, users, env, model = toy_world(n_concepts=4)
        episode = scripted_episode(model, env, users[0], [(0, 1.0)])
        lam = 0.08
        result = objective_and_gradients(episode, lam)
        assert result.value == pytest.approx(
            result.policy_term - lam * result.entropy_raw
        )

    def test_empty_episode_rejected(self):
        g, users, env, model = toy_world()
        episode = scripted_episode(model, env, users[0], [])
        with pytest.raises(ValueError):
            objective_and_gradients(episode, 0.08)

    def test_policy_term_weights_log_probs_by_returns(self):
        # sum_t log pi(c_t | u_t) * R_t, with each log pi computed off the
        # tape over the actions still available at step t
        g, users, env, model = toy_world(n_concepts=4, targets=(1, 2))
        model.policy.tensors["policy.scores"][:] = np.random.default_rng(4).normal(
            0, 0.5, model.policy.tensors["policy.scores"].shape
        )
        script = [(1, 1.0), (2, 1.0), (3, -1.0)]
        episode = scripted_episode(model, env, users[0], script, gamma=0.9)
        result = objective_and_gradients(episode, lam=0.08)
        returns = discounted_returns([r for _, r in script], 0.9)
        assert returns == pytest.approx([1.09, 0.1, -1.0], abs=1e-12)
        u = user_embedding(model.embed, g, env.corpus, users[0])
        actions = ActionSet.full(env.n_concepts)
        want = 0.0
        for (action, _), ret in zip(script, returns):
            want += math.log(action_distribution(model.policy, u, actions)[action]) * ret
            actions = actions.shrink(action)
        assert result.policy_term == pytest.approx(want, rel=1e-12, abs=1e-12)
