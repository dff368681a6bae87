"""Bundled embedding + policy parameters and checkpoint round-tripping."""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from .autodiff import Tape, Var
from .embedding import EmbedConfig, EmbedParams
from .graph import HinGraph, NodeType
from .metapath import MetaPath, builtin_metapaths
from .policy import PolicyParams
from .serialize import CheckpointError, load_tensors, save_tensors


class ModelParams:
    """Everything learnable, as one named-tensor dictionary."""

    def __init__(self, embed: EmbedParams, policy: PolicyParams):
        self.embed = embed
        self.policy = policy

    @property
    def tensors(self) -> dict[str, np.ndarray]:
        merged = dict(self.embed.tensors)
        merged.update(self.policy.tensors)
        return merged

    def leaves(self, tape: Tape) -> dict[str, Var]:
        return {name: tape.leaf(arr) for name, arr in self.tensors.items()}

    def copy(self) -> "ModelParams":
        return ModelParams(self.embed.copy(), self.policy.copy())

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
