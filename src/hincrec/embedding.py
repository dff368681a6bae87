"""Meta-path-guided user embeddings with hierarchical attention.

Per-type feature tables are projected into a shared space, neighbors
along each meta-path are combined by multi-head node-level attention,
and the per-path embeddings are fused by path-level attention into a
single user vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .autodiff import Tape, Var, attention_weights
from .graph import HinGraph, NodeRef, NodeType
from .metapath import MetaPath, PathCorpus, distinct_nodes, metapath_neighbors


@dataclass
class EmbedConfig:
    dim: int = 64              # final user embedding size
    heads: int = 8             # attention heads; dim must divide evenly
    feat_dim: int = 32         # per-type learnable feature width
    path_hidden: int = 128     # hidden size of the path-level scorer
    leaky_slope: float = 0.2

    def __post_init__(self) -> None:
        if self.dim % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide dim ({self.dim})")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


@dataclass
class UserEmbedding:
    vector: np.ndarray          # (dim,)
    beta: np.ndarray            # per-meta-path attention weights, sums to 1


class EmbedParams:
    """All learnable tensors of the embedding stage.

    Keys: ``feat.<type>`` feature tables, ``proj.<type>`` projections,
    ``attn.mp<id>`` per-head node-attention vectors (rows are heads, each
    of width 2 * head_dim), and ``path.W`` / ``path.b`` / ``path.q`` for
    the path-level scorer.
    """

    def __init__(
        self,
        cfg: EmbedConfig,
        node_counts: dict[NodeType, int],
        metapaths: Iterable[MetaPath],
        rng: np.random.Generator,
    ):
        self.cfg = cfg
        self.metapaths = list(metapaths)
        f1 = cfg.head_dim
        t: dict[str, np.ndarray] = {}
        for nt in NodeType:
            t[f"feat.{nt.value}"] = rng.normal(0.0, 0.1, (node_counts[nt], cfg.feat_dim))
        for nt in NodeType:
            t[f"proj.{nt.value}"] = rng.normal(
                0.0, 1.0 / np.sqrt(cfg.feat_dim), (f1, cfg.feat_dim)
            )
        for mp in self.metapaths:
            t[f"attn.mp{mp.id}"] = rng.normal(
                0.0, 1.0 / np.sqrt(2 * f1), (cfg.heads, 2 * f1)
            )
        t["path.W"] = rng.normal(0.0, 1.0 / np.sqrt(cfg.dim), (cfg.path_hidden, cfg.dim))
        t["path.b"] = np.zeros(cfg.path_hidden)
        t["path.q"] = rng.normal(0.0, 1.0 / np.sqrt(cfg.path_hidden), (cfg.path_hidden,))
        self.tensors = t

    @classmethod
    def from_tensors(
        cls, cfg: EmbedConfig, metapaths: Iterable[MetaPath], tensors: dict[str, np.ndarray]
    ) -> "EmbedParams":
        """Parameters holding `tensors` as given, without drawing any."""
        params = cls.__new__(cls)
        params.cfg = cfg
        params.metapaths = list(metapaths)
        params.tensors = tensors
        return params

    def copy(self) -> "EmbedParams":
        return EmbedParams.from_tensors(
            self.cfg, self.metapaths, {k: v.copy() for k, v in self.tensors.items()}
        )


_NODE_TYPES = tuple(NodeType)


@dataclass(frozen=True)
class Neighborhood:
    """A user's meta-path neighborhoods as the index arrays that attention
    reads.

    Its rows are the distinct nodes of the neighborhoods, by node type in
    `NodeType` order and in first-seen order within a type, so the user
    (the first user seen) is row 0.
    """

    features: tuple[np.ndarray, ...]  # per NodeType: the rows' indices in that type
    nbr_idx: np.ndarray               # (P, L) rows of each neighborhood, padded with 0
    mask: np.ndarray                  # (P, L) True on the neighborhood's entries


def _neighborhood_of(user: NodeRef, hoods: list[list[NodeRef]]) -> Neighborhood:
    """The arrays of `user` attending over each of `hoods` (node lists)."""
    if user.type is not NodeType.USER:
        raise ValueError(f"only a user attends over meta-path neighborhoods, got {user!r}")
    by_type: dict[NodeType, list[NodeRef]] = {nt: [] for nt in _NODE_TYPES}
    for ref in distinct_nodes(user, hoods):
        by_type[ref.type].append(ref)
    row: dict[NodeRef, int] = {}
    for refs in by_type.values():
        row.update(zip(refs, range(len(row), len(row) + len(refs))))
    idx = np.zeros((len(hoods), max(len(hood) for hood in hoods)), dtype=np.intp)
    mask = np.zeros(idx.shape, dtype=bool)
    for r, hood in enumerate(hoods):
        idx[r, : len(hood)] = [row[ref] for ref in hood]
        mask[r, : len(hood)] = True
    features = tuple(
        np.array([ref.index for ref in refs], dtype=np.intp) for refs in by_type.values()
    )
    return Neighborhood(features, idx, mask)


def neighborhood(corpus: PathCorpus, user: NodeRef, metapaths: list[MetaPath]) -> Neighborhood:
    """The arrays of `user` over the union of its sampled walks per
    meta-path (see ``metapath_neighbors``). `corpus` keeps them, by
    meta-path ids, from their first use until the user's bags are next
    written."""
    kept = corpus.kept(user)
    key = tuple(mp.id for mp in metapaths)
    hood = kept.get(key)
    if hood is None:
        hood = kept[key] = _walked_neighborhood(corpus, user, metapaths)
    return hood


def _walked_neighborhood(
    corpus: PathCorpus, user: NodeRef, metapaths: list[MetaPath]
) -> Neighborhood:
    return _neighborhood_of(user, [metapath_neighbors(corpus, user, mp) for mp in metapaths])


# (feature table, projection) names per node type, in NodeType order
_TABLES = tuple((f"feat.{nt.value}", f"proj.{nt.value}") for nt in _NODE_TYPES)


def _project(tape: Tape, leaves: dict[str, Var], features: tuple[np.ndarray, ...]) -> Var:
    """Projected features M_type @ h of the rows `features` lists, one
    gather and one product per node type that has rows."""
    blocks = [
        tape.matmul_t(tape.gather_rows(leaves[feat], ids), leaves[proj])
        for (feat, proj), ids in zip(_TABLES, features)
        if ids.size
    ]
    return blocks[0] if len(blocks) == 1 else tape.concat(blocks)


def build_user_embeddings(
    tape: Tape,
    leaves: dict[str, Var],
    params: EmbedParams,
    hoods: Sequence[Neighborhood],
) -> tuple[Var, Var]:
    """Returns the (B, dim) user vectors and (B, P) path weights of the
    B users whose `hoods` are given, in one pass over the tape:
    multi-head node-level attention per meta-path, then a softmax over
    each user's path scores q . tanh(W e + b) and the weighted sum.

    The users' rows are stacked by node type: every user's block of one
    type together, in batch order, so each type takes one gather and one
    product. A repeated user is embedded once per occurrence.
    """
    # start[t]: the stacked row where the next user's block of type t begins
    start, total, features = [], 0, []
    for block in zip(*(hood.features for hood in hoods)):
        start.append(total)
        total += sum(ids.size for ids in block)
        features.append(block[0] if len(block) == 1 else np.concatenate(block))
    width = max(hood.nbr_idx.shape[1] for hood in hoods)
    nbr_idx = np.zeros((len(hoods), len(params.metapaths), width), dtype=np.intp)
    mask = np.zeros(nbr_idx.shape, dtype=bool)
    self_rows = []
    for b, hood in enumerate(hoods):
        # rows[r]: the stacked row of row r of the user's own layout
        rows = []
        for t, ids in enumerate(hood.features):
            rows.extend(range(start[t], start[t] + ids.size))
            start[t] += ids.size
        # each user is row 0 of its own layout
        self_rows.append(rows[0])
        w = hood.nbr_idx.shape[1]
        nbr_idx[b, :, :w] = np.array(rows)[hood.nbr_idx]
        mask[b, :, :w] = hood.mask
    h = _project(tape, leaves, features)
    attn = [leaves[f"attn.mp{mp.id}"] for mp in params.metapaths]
    a = attn[0] if len(attn) == 1 else tape.concat(attn)
    per_path = tape.multihead_attention(
        h, nbr_idx, mask, a, params.cfg.leaky_slope, self_rows
    )
    hidden = tape.tanh(tape.matmul_t(per_path, leaves["path.W"], leaves["path.b"]))
    beta = tape.softmax(tape.matvec(hidden, leaves["path.q"]))
    return tape.matvec_t(per_path, beta), beta


def build_user_embedding(
    tape: Tape,
    leaves: dict[str, Var],
    params: EmbedParams,
    corpus: PathCorpus,
    user: NodeRef,
) -> tuple[Var, Var]:
    """Returns (user vector Var, per-meta-path beta Var): row 0 of
    `build_user_embeddings` over the user's `neighborhood` arrays, which
    `corpus` keeps.

    Per meta-path, the union of the user's sampled walks (see
    ``metapath_neighbors``) is the neighborhood that is aggregated and
    fused. The result is a deterministic function of (params, corpus).
    """
    hood = neighborhood(corpus, user, params.metapaths)
    u, beta = build_user_embeddings(tape, leaves, params, [hood])
    return tape.gather_row(u, 0), tape.gather_row(beta, 0)


# -- numpy-facing wrappers over the tape builders -------------------------


def _const_leaves(tape: Tape, params: EmbedParams) -> dict[str, Var]:
    return {k: tape.leaf(v) for k, v in params.tensors.items()}


def node_attention(
    params: EmbedParams,
    node: NodeRef,
    neighborhood: list[NodeRef],
    mp: MetaPath,
    head: int,
) -> np.ndarray:
    """Attention weights of `node` over `neighborhood` for one head."""
    if not neighborhood:
        raise ValueError("neighborhood must be nonempty")
    tape = Tape(record=False)
    leaves = _const_leaves(tape, params)
    hood = _neighborhood_of(node, [neighborhood])
    h = _project(tape, leaves, hood.features).value
    a = leaves[f"attn.mp{mp.id}"].value
    _, _, alpha = attention_weights(
        h, hood.nbr_idx[None], hood.mask[None], a, params.cfg.leaky_slope, np.zeros(1, np.intp)
    )
    return alpha[0, 0, head]


def user_embedding(
    params: EmbedParams,
    graph: HinGraph,
    corpus: PathCorpus,
    user: NodeRef,
) -> UserEmbedding:
    """Fused user embedding over all configured meta-paths, forward only.

    Deterministic given (params, corpus). The user's arrays are computed
    for this call and not kept: its callers embed a user once (a
    `recommend` request walks a corpus of its own, and `PolicyScorer`
    keeps the logits), so arrays kept by their corpora would only hold
    memory.
    """
    graph._check_node(user)
    tape = Tape(record=False)
    hood = _walked_neighborhood(corpus, user, params.metapaths)
    u, beta = build_user_embeddings(tape, _const_leaves(tape, params), params, [hood])
    return UserEmbedding(vector=u.value[0], beta=beta.value[0])
