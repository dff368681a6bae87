"""Concept-scoring policy with action masking and epsilon-greedy selection."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .autodiff import Tape, Var
from .embedding import UserEmbedding


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

    @classmethod
    def excluding(cls, n_concepts: int, blocked) -> "ActionSet":
        mask = np.ones(n_concepts, dtype=bool)
        for c in blocked:
            mask[c] = False
        return cls(mask)

    def count(self) -> int:
        return int(self.mask.sum())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def is_available(self, action: int) -> bool:
        return bool(self.mask[action])

    def shrink(self, action: int) -> "ActionSet":
        if not self.mask[action]:
            raise ActionNotAvailable(f"concept {action} is not available")
        mask = self.mask.copy()
        mask[action] = False
        return ActionSet(mask)

    def __len__(self) -> int:
        return self.mask.shape[0]


def shrink(actions: ActionSet, action: int) -> ActionSet:
    return actions.shrink(action)


class PolicyParams:
    """Linear concept scorer: logits = scores @ u + bias.

    With ``tie_concept_features`` the score table is derived from the
    graph-side concept feature table through a learned projection instead
    of being a free tensor.
    """

    def __init__(
        self,
        n_concepts: int,
        dim: int,
        use_bias: bool = True,
        tie_concept_features: bool = False,
        feat_dim: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.n_concepts = n_concepts
        self.dim = dim
        self.tied = tie_concept_features
        t: dict[str, np.ndarray] = {}
        if tie_concept_features:
            if feat_dim is None:
                raise ValueError("tied policy needs the concept feature width")
            gen = rng if rng is not None else np.random.default_rng()
            t["policy.tie_proj"] = gen.normal(0.0, 1.0 / np.sqrt(feat_dim), (dim, feat_dim))
        else:
            t["policy.scores"] = np.zeros((n_concepts, dim))
        if use_bias:
            t["policy.bias"] = np.zeros(n_concepts)
        self.tensors = t

    def copy(self) -> "PolicyParams":
        clone = object.__new__(PolicyParams)
        clone.n_concepts = self.n_concepts
        clone.dim = self.dim
        clone.tied = self.tied
        clone.tensors = {k: v.copy() for k, v in self.tensors.items()}
        return clone


def policy_logits(
    tape: Tape,
    leaves: dict[str, Var],
    policy: PolicyParams,
    u: Var,
) -> Var:
    """Concept logits for user vector `u`: scores @ u + bias, where a tied
    policy's score table is feat.concept @ tie_proj.T."""
    if policy.tied:
        folded = tape.matvec_t(leaves["policy.tie_proj"], u)
        z = tape.matvec(leaves["feat.concept"], folded)
    else:
        z = tape.matvec(leaves["policy.scores"], u)
    if "policy.bias" in leaves:
        z = tape.vecadd(z, leaves["policy.bias"])
    return z


def build_action_distribution(
    tape: Tape,
    leaves: dict[str, Var],
    policy: PolicyParams,
    u: Var,
    actions: ActionSet,
) -> Var:
    """Masked softmax distribution over concepts as a tape Var."""
    if actions.count() == 0:
        raise EmptyActionSet("no available concept to score")
    return tape.masked_softmax(policy_logits(tape, leaves, policy, u), actions.mask)


def action_distribution(
    policy: PolicyParams,
    u: Union[UserEmbedding, np.ndarray],
    actions: ActionSet,
    concept_features: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Probability vector over all K concepts; masked entries are exactly 0."""
    vec = u.vector if isinstance(u, UserEmbedding) else np.asarray(u, dtype=float)
    tape = Tape(record=False)
    leaves = {k: tape.leaf(v) for k, v in policy.tensors.items()}
    if policy.tied:
        if concept_features is None:
            raise ValueError("tied policy needs the concept feature table")
        leaves["feat.concept"] = tape.leaf(concept_features)
    return build_action_distribution(tape, leaves, policy, tape.leaf(vec), actions).value


def select_action(
    dist: np.ndarray,
    actions: ActionSet,
    epsilon: float,
    rng: np.random.Generator,
) -> tuple[int, float]:
    """Epsilon-greedy pick from a masked distribution.

    With probability epsilon a uniform available action is taken, else the
    argmax of `dist` (ties resolved toward the smallest concept index).
    The returned log-probability is log dist[chosen] in either branch.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be within [0, 1]")
    avail = actions.indices()
    if avail.size == 0:
        raise EmptyActionSet("no available action to select")
    if rng.random() < epsilon:
        chosen = int(avail[int(rng.integers(avail.size))])
    else:
        chosen = int(np.argmax(dist))
    return chosen, float(np.log(dist[chosen]))
