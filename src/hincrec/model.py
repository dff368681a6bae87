"""Bundled embedding + policy parameters and checkpoint round-tripping."""

from __future__ import annotations

import math
from pathlib import Path
from types import MappingProxyType
from typing import Optional, Union

import numpy as np

from .autodiff import Tape, Var
from .embedding import EmbedConfig, EmbedParams
from .graph import HinGraph, NodeType
from .metapath import MetaPath, builtin_metapaths
from .policy import PolicyParams
from .serialize import CheckpointError, load_tensors, save_tensors


class FlatParams:
    """Named float64 tensors stored, in their order, as reshaped views of
    one vector `theta`.

    Training adds buffers of the same layout (`training_buffers`): the
    flat gradient `grad`, whose views by name are `grads`, and Adam's
    `moments` (m, v and a scratch vector). Forward-only use never
    allocates them, so they stay None.
    """

    def __init__(self, tensors: dict[str, np.ndarray]):
        self.shapes = {name: np.shape(arr) for name, arr in tensors.items()}
        arrays = [np.ravel(arr) for arr in tensors.values()]
        self.theta = np.concatenate(arrays, dtype=np.float64) if arrays else np.empty(0)
        self.views = self._named(self.theta)
        self.grad: Optional[np.ndarray] = None
        self.grads: Optional[dict[str, np.ndarray]] = None
        self.moments: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def _named(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views of `flat`, by tensor name, in the layout of `theta`."""
        views, lo = {}, 0
        for name, shape in self.shapes.items():
            hi = lo + math.prod(shape)
            views[name] = flat[lo:hi].reshape(shape)
            lo = hi
        return views

    def training_buffers(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The gradient and Adam's (m, v, scratch), all zero: allocated on
        the first call and zero-filled on each later one."""
        if self.grad is None:
            self.grad = np.zeros_like(self.theta)
            self.grads = self._named(self.grad)
            self.moments = tuple(np.zeros_like(self.theta) for _ in range(3))
        else:
            for buf in (self.grad, *self.moments):
                buf.fill(0.0)
        return self.grad, self.moments


class ModelParams(FlatParams):
    """Everything learnable: the embedding's tensors, then the policy's, as
    views of one flat vector. `tensors`, `embed.tensors` and
    `policy.tensors` are read-only mappings over those views: an entry
    cannot be rebound away from `theta`, only written in place."""

    def __init__(self, embed: EmbedParams, policy: PolicyParams):
        super().__init__({**embed.tensors, **policy.tensors})
        self.embed = embed
        self.policy = policy
        self.tensors = MappingProxyType(self.views)
        for part in (embed, policy):
            part.tensors = MappingProxyType({name: self.views[name] for name in part.tensors})

    def leaves(self, tape: Tape) -> dict[str, Var]:
        return {name: tape.leaf(arr) for name, arr in self.tensors.items()}

    def training_leaves(self, tape: Tape) -> dict[str, Var]:
        """Leaves of the parameters whose `.grad` is preset to their view of
        the flat gradient, cleared, so that a backward pass adds into
        `grad`."""
        if self.grad is None:
            self.training_buffers()
        self.grad.fill(0.0)
        leaves = {}
        for (name, view), grad in zip(self.views.items(), self.grads.values()):
            leaves[name] = leaf = tape.leaf(view)
            leaf.grad = grad
        return leaves

    def copy(self) -> "ModelParams":
        """An independent model, whose vector is one copy of this model's
        tensors."""
        return ModelParams(
            EmbedParams.from_tensors(self.embed.cfg, self.embed.metapaths, dict(self.embed.tensors)),
            PolicyParams.from_tensors(dict(self.policy.tensors)),
        )

    # -- checkpoint IO ---------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        mp_ids = np.array([mp.id for mp in self.embed.metapaths], float)
        save_tensors(path, {**self.tensors, "meta.metapaths": mp_ids})

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ModelParams":
        tensors = load_tensors(path)
        # Older files carry three variant flags and the attention slope; a
        # file the CLI wrote holds zeros and 0.2, the only model there is now.
        legacy = {"meta.flags": 0.0, "meta.leaky_slope": EmbedConfig.leaky_slope}
        for key, supported in legacy.items():
            value = tensors.pop(key, None)
            if value is not None and np.any(value != supported):
                raise CheckpointError(
                    f"checkpoint {path} is for a model variant that is no longer "
                    f"supported ({key} = {value.tolist()})"
                )
        try:
            mp_ids = [int(i) for i in np.atleast_1d(tensors.pop("meta.metapaths"))]
            by_id = {mp.id: mp for mp in builtin_metapaths()}
            metapaths = [by_id[i] for i in mp_ids]
            heads, two_f1 = tensors[f"attn.mp{mp_ids[0]}"].shape
            cfg = EmbedConfig(
                dim=heads * (two_f1 // 2),
                heads=heads,
                feat_dim=tensors["feat.user"].shape[1],
                path_hidden=tensors["path.W"].shape[0],
            )
            policy = {k: tensors.pop(k) for k in ("policy.scores", "policy.bias")}
        except (KeyError, IndexError, ValueError) as exc:
            raise CheckpointError(f"checkpoint {path} is missing tensors: {exc}") from exc
        return cls(
            EmbedParams.from_tensors(cfg, metapaths, tensors),
            PolicyParams.from_tensors(policy),
        )


def init_model(
    graph: HinGraph,
    metapaths: Optional[list[MetaPath]] = None,
    embed_cfg: Optional[EmbedConfig] = None,
    *,
    rng: np.random.Generator,
) -> ModelParams:
    """Fresh parameters sized for `graph`; only the embedding draws from `rng`."""
    if metapaths is None:
        metapaths = builtin_metapaths()
    if embed_cfg is None:
        embed_cfg = EmbedConfig()
    embed = EmbedParams(embed_cfg, graph.node_counts, metapaths, rng)
    policy = PolicyParams(graph.node_count(NodeType.CONCEPT), embed_cfg.dim)
    return ModelParams(embed, policy)
