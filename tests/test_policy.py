import math

import numpy as np
import pytest

from unfused import action_distribution

from hincrec.policy import (
    ActionNotAvailable,
    ActionSet,
    EmptyActionSet,
    PolicyParams,
    select_action,
)


def excluding(n_concepts, blocked):
    """All K concepts available but the `blocked` ones."""
    mask = np.ones(n_concepts, dtype=bool)
    mask[list(blocked)] = False
    return ActionSet(mask)


def make_policy(n=4, dim=3):
    return PolicyParams(n_concepts=n, dim=dim)


class TestDistribution:
    def test_single_available_action(self):
        pp = make_policy()
        actions = excluding(4, [0, 2, 3])
        dist = action_distribution(pp, np.ones(3), actions)
        assert dist[1] == 1.0
        assert np.all(dist[[0, 2, 3]] == 0.0)

    def test_zero_params_uniform_over_available(self):
        pp = make_policy()
        actions = excluding(4, [2])
        dist = action_distribution(pp, np.ones(3), actions)
        assert np.allclose(dist[[0, 1, 3]], 1 / 3, atol=1e-12)
        assert dist[2] == 0.0
        assert abs(dist.sum() - 1.0) < 1e-12

    def test_closed_form_logits(self):
        pp = make_policy(n=2, dim=1)
        pp.tensors["policy.scores"] = np.array([[0.0], [math.log(3.0)]])
        dist = action_distribution(pp, np.array([1.0]), ActionSet.full(2))
        assert np.allclose(dist, [0.25, 0.75], atol=1e-12)

    def test_masked_exactly_zero_and_sum_one(self):
        rng = np.random.default_rng(0)
        pp = make_policy(n=10, dim=4)
        pp.tensors["policy.scores"] = rng.normal(0, 3, (10, 4))
        pp.tensors["policy.bias"] = rng.normal(0, 1, 10)
        actions = excluding(10, [1, 5, 6])
        dist = action_distribution(pp, rng.normal(0, 1, 4), actions)
        assert np.all(dist[[1, 5, 6]] == 0.0)
        assert abs(dist.sum() - 1.0) < 1e-12

    def test_empty_action_set(self):
        pp = make_policy()
        with pytest.raises(EmptyActionSet):
            action_distribution(pp, np.ones(3), excluding(4, range(4)))

    def test_argmax_invariant_to_logit_shift(self):
        rng = np.random.default_rng(1)
        pp = make_policy(n=6, dim=2)
        pp.tensors["policy.scores"] = rng.normal(0, 1, (6, 2))
        u = rng.normal(0, 1, 2)
        base = action_distribution(pp, u, ActionSet.full(6))
        pp.tensors["policy.bias"] += 7.5  # constant shift of every logit
        shifted = action_distribution(pp, u, ActionSet.full(6))
        assert np.argmax(base) == np.argmax(shifted)
        assert np.allclose(base, shifted, atol=1e-12)


class TestSelect:
    def test_greedy_when_epsilon_zero(self):
        dist = np.array([0.1, 0.6, 0.3, 0.0])
        actions = excluding(4, [3])
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert select_action(dist, actions, 0.0, rng) == 1

    def test_uniform_when_epsilon_one(self):
        # oracle: binomial(10000, 1/4); 3 sigma on counts = 3*sqrt(n p (1-p))
        dist = np.array([0.7, 0.1, 0.1, 0.1])
        actions = ActionSet.full(4)
        rng = np.random.default_rng(123)
        counts = np.zeros(4)
        n = 10_000
        for _ in range(n):
            counts[select_action(dist, actions, 1.0, rng)] += 1
        sigma3 = 3 * math.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) <= sigma3)

    def test_tie_breaks_to_lower_index(self):
        dist = np.array([0.0, 0.4, 0.4, 0.2])
        assert select_action(dist, ActionSet.full(4), 0.0, np.random.default_rng(0)) == 1

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            select_action(np.ones(2) / 2, ActionSet.full(2), 1.5, np.random.default_rng(0))

    def test_empty_set_raises(self):
        with pytest.raises(EmptyActionSet):
            select_action(np.ones(2) / 2, excluding(2, [0, 1]), 0.5,
                          np.random.default_rng(0))


class TestShrink:
    def test_remove_middle(self):
        actions = excluding(4, [0])  # {1,2,3}
        out = actions.shrink(2)
        assert list(out.indices()) == [1, 3]
        assert list(actions.indices()) == [1, 2, 3]  # original untouched

    def test_remove_last_leaves_empty(self):
        actions = excluding(3, [0, 1])
        out = actions.shrink(2)
        assert out.count() == 0

    def test_remove_unavailable_raises(self):
        actions = excluding(6, [5])  # {0..4}
        with pytest.raises(ActionNotAvailable):
            actions.shrink(5)

    def test_count_decreases_by_one(self):
        actions = ActionSet.full(8)
        for i in range(8):
            nxt = actions.shrink(i)
            assert nxt.count() == actions.count() - 1
            actions = nxt
