"""Concept-scoring policy with action masking and epsilon-greedy selection."""

from __future__ import annotations

import numpy as np

from .autodiff import Tape, Var


class EmptyActionSet(Exception):
    """A step was requested but no action remains available."""


class ActionNotAvailable(Exception):
    """Tried to remove an action that is not in the set."""


class ActionSet:
    """Boolean availability mask over the K concepts.

    Shrinks monotonically within an episode; `shrink` returns a new set so
    episode steps can keep references to earlier states.
    """

    def __init__(self, mask: np.ndarray):
        self.mask = np.asarray(mask, dtype=bool)

    @classmethod
    def full(cls, n_concepts: int) -> "ActionSet":
        return cls(np.ones(n_concepts, dtype=bool))

    def count(self) -> int:
        return int(self.mask.sum())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def shrink(self, action: int) -> "ActionSet":
        if not self.mask[action]:
            raise ActionNotAvailable(f"concept {action} is not available")
        mask = self.mask.copy()
        mask[action] = False
        return ActionSet(mask)


class PolicyParams:
    """Linear concept scorer: logits = scores @ u + bias, with ``policy.scores``
    of shape (K, dim) and ``policy.bias`` of shape (K,)."""

    def __init__(self, n_concepts: int, dim: int):
        self.tensors = {
            "policy.scores": np.zeros((n_concepts, dim)),
            "policy.bias": np.zeros(n_concepts),
        }

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "PolicyParams":
        """Parameters holding `tensors` as given."""
        params = cls.__new__(cls)
        params.tensors = tensors
        return params

    @property
    def n_concepts(self) -> int:
        return self.tensors["policy.scores"].shape[0]


def policy_logits(tape: Tape, leaves: dict[str, Var], u: Var) -> Var:
    """Concept logits scores @ u + bias of a user vector `u` (dim,), or
    one row of them per row of a batch `u` (B, dim)."""
    return tape.matmul_t(u, leaves["policy.scores"], leaves["policy.bias"])


def build_action_distribution(
    tape: Tape,
    leaves: dict[str, Var],
    policy: PolicyParams,
    u: Var,
    actions: ActionSet,
) -> Var:
    """Masked softmax distribution over concepts as a tape Var.

    The logits read the policy tensors from `leaves`; `policy` is not read.
    """
    if actions.count() == 0:
        raise EmptyActionSet("no available concept to score")
    return tape.softmax(policy_logits(tape, leaves, u), actions.mask)


def select_action(
    dist: np.ndarray,
    actions: ActionSet,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Epsilon-greedy pick from a masked distribution.

    With probability epsilon a uniform available action is taken, else the
    argmax of `dist` (ties resolved toward the smallest concept index).
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be within [0, 1]")
    if not actions.mask.any():
        raise EmptyActionSet("no available action to select")
    if rng.random() < epsilon:
        avail = actions.indices()
        return int(avail[int(rng.integers(avail.size))])
    return int(np.argmax(dist))
