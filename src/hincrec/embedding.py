"""Meta-path-guided user embeddings with hierarchical attention.

Per-type feature tables are projected into a shared space, neighbors
along each meta-path are combined by multi-head node-level attention,
and the per-path embeddings are fused by path-level attention into a
single user vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

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
    # Score each sampled instance on its own and average the path-level
    # scores; the fused embedding still aggregates the bag union.
    average_path_scores: bool = False
    # No effect: the neighborhood is the bag union, so there is no instance
    # to choose. Kept for checkpoint compatibility.
    freeze_instance_choice: bool = False

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

    def copy(self) -> "EmbedParams":
        clone = object.__new__(EmbedParams)
        clone.cfg = self.cfg
        clone.metapaths = list(self.metapaths)
        clone.tensors = {k: v.copy() for k, v in self.tensors.items()}
        return clone


def _project(
    tape: Tape, leaves: dict[str, Var], nodes: list[NodeRef]
) -> tuple[Var, dict[NodeRef, int]]:
    """Projected features M_type @ h of the distinct `nodes`, one gather and
    one product per node type, with ``nodes[0]`` in row 0. Returns the
    (len(nodes), head_dim) matrix and the row of each node."""
    by_type: dict[NodeType, list[NodeRef]] = {}
    for ref in nodes:
        by_type.setdefault(ref.type, []).append(ref)
    blocks: list[Var] = []
    row: dict[NodeRef, int] = {}
    for nt, refs in by_type.items():
        row.update({ref: len(row) + i for i, ref in enumerate(refs)})
        feats = tape.gather_rows(leaves[f"feat.{nt.value}"], [ref.index for ref in refs])
        blocks.append(tape.matmul_t(feats, leaves[f"proj.{nt.value}"]))
    return (blocks[0] if len(blocks) == 1 else tape.concat(blocks)), row


def _attention_inputs(
    tape: Tape,
    leaves: dict[str, Var],
    node: NodeRef,
    hoods: list[list[NodeRef]],
    mps: list[MetaPath],
) -> tuple[Var, np.ndarray, np.ndarray, Var]:
    """Arguments of `Tape.multihead_attention` for `node` attending over
    each of `hoods` with the attention vectors of the matching meta-path:
    projected features, padded neighbor rows, their mask, stacked vectors."""
    h, row = _project(tape, leaves, distinct_nodes(node, hoods))
    idx = np.zeros((len(hoods), max(len(hood) for hood in hoods)), dtype=np.intp)
    mask = np.zeros(idx.shape, dtype=bool)
    for r, hood in enumerate(hoods):
        idx[r, : len(hood)] = [row[ref] for ref in hood]
        mask[r, : len(hood)] = True
    attn = [leaves[f"attn.mp{mp.id}"] for mp in mps]
    return h, idx, mask, attn[0] if len(attn) == 1 else tape.concat(attn)


def _path_embeddings(
    tape: Tape,
    leaves: dict[str, Var],
    params: EmbedParams,
    node: NodeRef,
    hoods: list[list[NodeRef]],
    mps: list[MetaPath],
) -> Var:
    """Multi-head node-level attention aggregation, one row per neighborhood."""
    h, idx, mask, a = _attention_inputs(tape, leaves, node, hoods, mps)
    return tape.multihead_attention(h, idx, mask, a, params.cfg.leaky_slope)


def _path_scores(tape: Tape, leaves: dict[str, Var], emb: Var) -> Var:
    """Path-level scores q . tanh(W e + b), one per row e of `emb`."""
    hidden = tape.tanh(tape.matmul_t(emb, leaves["path.W"], leaves["path.b"]))
    return tape.matvec(hidden, leaves["path.q"])


def build_user_embedding(
    tape: Tape,
    leaves: dict[str, Var],
    params: EmbedParams,
    corpus: PathCorpus,
    user: NodeRef,
    rng: Optional[np.random.Generator] = None,
) -> tuple[Var, Var]:
    """Returns (user vector Var, per-meta-path beta Var).

    Per meta-path, the union of the user's sampled walks (see
    ``metapath_neighbors``) is the neighborhood that is aggregated and
    fused. With ``average_path_scores`` the path-level score is instead
    averaged over an aggregation of each instance in the bag on its own,
    while the fused embedding still uses the union. The result is a
    deterministic function of (params, corpus); ``rng`` draws nothing.
    """
    mps = params.metapaths
    hoods = [metapath_neighbors(corpus, user, mp) for mp in mps]
    if not params.cfg.average_path_scores:
        per_path = _path_embeddings(tape, leaves, params, user, hoods, mps)
        scores = _path_scores(tape, leaves, per_path)
    else:
        # Rows after the unions hold one instance each; a path's score is
        # the mean of its instances' scores.
        owner: list[int] = []
        inst_hoods: list[list[NodeRef]] = []
        for p, mp in enumerate(mps):
            for inst in corpus.bag(user, mp.id) or [[user]]:
                owner.append(p)
                inst_hoods.append(distinct_nodes(user, [inst]))
        rows = _path_embeddings(
            tape, leaves, params, user, hoods + inst_hoods, mps + [mps[p] for p in owner]
        )
        n, m = len(mps), len(owner)
        per_path = tape.gather_rows(rows, range(n))
        inst_scores = _path_scores(tape, leaves, tape.gather_rows(rows, range(n, n + m)))
        mean = np.zeros((n, m))
        mean[owner, np.arange(m)] = 1.0
        scores = tape.matvec(mean / mean.sum(axis=1, keepdims=True), inst_scores)
    beta = tape.softmax(scores)
    return tape.matvec_t(per_path, beta), beta


# -- numpy-facing wrappers over the tape builders -------------------------


def _const_leaves(tape: Tape, params: EmbedParams) -> dict[str, Var]:
    return {k: tape.leaf(v) for k, v in params.tensors.items()}


def project(params: EmbedParams, node: NodeRef) -> np.ndarray:
    """Projected feature of one node: M_type @ h_node."""
    tape = Tape(record=False)
    h, _ = _project(tape, _const_leaves(tape, params), [node])
    return h.value[0]


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
    h, idx, mask, a = _attention_inputs(
        tape, _const_leaves(tape, params), node, [neighborhood], [mp]
    )
    _, _, alpha = attention_weights(h.value, idx, mask, a.value, params.cfg.leaky_slope)
    return alpha[0, head]


def node_aggregate(
    params: EmbedParams,
    node: NodeRef,
    mp: MetaPath,
    corpus: PathCorpus,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Concatenated multi-head aggregation along one meta-path.

    Aggregates over the bag union; ``rng`` draws nothing.
    """
    tape = Tape(record=False)
    hood = metapath_neighbors(corpus, node, mp)
    return _path_embeddings(
        tape, _const_leaves(tape, params), params, node, [hood], [mp]
    ).value[0]


def path_attention(
    params: EmbedParams, embeddings: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Path-level weights over per-meta-path embeddings: (beta, raw scores)."""
    tape = Tape(record=False)
    w = _path_scores(tape, _const_leaves(tape, params), tape.leaf(np.stack(embeddings)))
    return tape.softmax(w).value, w.value


def user_embedding(
    params: EmbedParams,
    graph: HinGraph,
    corpus: PathCorpus,
    user: NodeRef,
    rng: Optional[np.random.Generator] = None,
) -> UserEmbedding:
    """Fused user embedding over all configured meta-paths.

    Deterministic given (params, corpus); ``rng`` draws nothing.
    """
    graph._check_node(user)
    tape = Tape(record=False)
    leaves = _const_leaves(tape, params)
    vec, beta = build_user_embedding(tape, leaves, params, corpus, user, rng=rng)
    return UserEmbedding(vector=vec.value, beta=beta.value)
