"""Meta-path-guided user embeddings with hierarchical attention.

Per-type feature tables are projected into a shared space, neighbors
along each meta-path are combined by multi-head node-level attention,
and the per-path embeddings are fused by path-level attention into a
single user vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .autodiff import Tape, Var
from .graph import KEY_SHIFT, TYPE_ORDER, HinGraph, NodeRef, NodeType, node_key
from .metapath import MetaPath, PathCorpus, metapath_neighbors


@dataclass
class EmbedConfig:
    dim: int = 64              # final user embedding size
    heads: int = 8             # attention heads; dim must divide evenly
    feat_dim: int = 32         # per-type learnable feature width
    path_hidden: int = 128     # hidden size of the path-level scorer
    leaky_slope: ClassVar[float] = 0.2  # node-attention LeakyReLU slope (HAN)

    def __post_init__(self) -> None:
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
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


# The key of each node type's first node, after the first type's.
_TYPE_STARTS = np.arange(1, len(TYPE_ORDER), dtype=np.int64) << KEY_SHIFT


def _pad(rows: Sequence[np.ndarray]) -> np.ndarray:
    """`rows`, arrays alike in shape but for the length of their last axis,
    stacked and padded with -1 along that axis to the longest."""
    width = max(row.shape[-1] for row in rows)
    keys = np.full((len(rows), *rows[0].shape[:-1], width), -1, dtype=np.int64)
    for i, row in enumerate(rows):
        keys[i, ..., : row.shape[-1]] = row
    return keys


def neighborhood_keys(
    corpus: PathCorpus, users: Sequence[NodeRef], metapaths: list[MetaPath]
) -> np.ndarray:
    """The (B, P, W) node keys of the neighborhoods of the B `users` along
    each of `metapaths`: row [b, p] lists ``metapath_neighbors`` (the user
    first, then the distinct nodes of its sampled walks, in walk order),
    padded with -1.

    One user's rows are ``metapath_neighbors``' own. For more users, one
    stable sort of each of the B * P rows of walk keys finds the first
    occurrence of every key, which gives the same rows."""
    if len(users) == 1:
        return _pad([metapath_neighbors(corpus, users[0], mp) for mp in metapaths])[None]
    # one row per (meta-path, user): the user's key, then its walks' keys
    bags = [[corpus.walks(user, mp.id) for user in users] for mp in metapaths]
    sizes = np.array([[walks.size for walks in row] for row in bags]).ravel() + 1
    seq = np.full((sizes.size, sizes.max()), -1, dtype=np.int64)
    seq[:, 0] = np.tile([node_key(user) for user in users], len(metapaths))
    cols = np.arange(seq.shape[1])
    seq[(cols > 0) & (cols < sizes[:, None])] = np.concatenate(
        [(np.concatenate(row) + mp.type_keys).ravel() for mp, row in zip(metapaths, bags)]
    )
    order = np.argsort(seq, axis=1, kind="stable")
    ordered = np.take_along_axis(seq, order, axis=1)
    first = ordered >= 0
    first[:, 1:] &= ordered[:, 1:] != ordered[:, :-1]
    keep = np.zeros_like(first)
    np.put_along_axis(keep, order, first, axis=1)
    counts = np.count_nonzero(keep, axis=1)
    keys = np.full((sizes.size, counts.max()), -1, dtype=np.int64)
    keys[np.arange(keys.shape[1]) < counts[:, None]] = seq[keep]
    return np.ascontiguousarray(keys.reshape(len(metapaths), len(users), -1).transpose(1, 0, 2))


def neighborhood(corpus: PathCorpus, user: NodeRef, metapaths: list[MetaPath]) -> np.ndarray:
    """The (P, L) `neighborhood_keys` of `user` along `metapaths`, which `corpus`
    keeps, by meta-path ids, from their first use until the user's bags
    are next written."""
    kept = corpus.kept(user)
    key = tuple(mp.id for mp in metapaths)
    keys = kept.get(key)
    if keys is None:
        keys = kept[key] = neighborhood_keys(corpus, [user], metapaths)[0]
    return keys


def _layout(keys: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Lays out the (B, P, L) node keys of B users' neighborhoods, each
    row beginning with its user, over one stack of node rows that holds
    each distinct node once, in key order. Each type's nodes are then
    one contiguous slice of the stack.

    Returns each type's node indices in its slice, in NodeType order; the
    (B, P, L) stack rows of the keys (a pad reads its user's row) and the
    mask of the entries that are not pads; and the users' (B,) rows.
    """
    mask = keys >= 0
    keys = np.where(mask, keys, keys[:, :1, :1])
    ordered = np.sort(keys, axis=None)
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    rows = np.searchsorted(distinct, keys)
    bounds = [0, *np.searchsorted(distinct, _TYPE_STARTS).tolist(), distinct.size]
    distinct &= (1 << KEY_SHIFT) - 1
    ids = [distinct[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return ids, rows, mask, rows[:, 0, 0]


# (feature table, projection) names per node type, in TYPE_ORDER
_TABLES = tuple((f"feat.{nt.value}", f"proj.{nt.value}") for nt in TYPE_ORDER)


def _project(tape: Tape, leaves: dict[str, Var], ids: Sequence[np.ndarray]) -> Var:
    """Projected features M_type @ h of the nodes `ids` lists per type,
    one gather and one product per node type that has nodes."""
    blocks = [
        tape.matmul_t(tape.gather_rows(leaves[feat], type_ids), leaves[proj])
        for (feat, proj), type_ids in zip(_TABLES, ids)
        if type_ids.size
    ]
    return blocks[0] if len(blocks) == 1 else tape.concat(blocks)


def build_user_embeddings(
    tape: Tape,
    leaves: dict[str, Var],
    params: EmbedParams,
    hoods: np.ndarray | Sequence[np.ndarray],
) -> tuple[Var, Var]:
    """Returns the (B, dim) user vectors and (B, P) path weights of B
    users, in one pass over the tape: multi-head node-level attention per
    meta-path, then a softmax over each user's path scores
    q . tanh(W e + b) and the weighted sum. `hoods` is the users' (B, P, W)
    `neighborhood_keys`, or a sequence of their (P, L) `neighborhood` keys.

    Each distinct node of the batch is gathered and projected once (see
    `_layout`), however many users' neighborhoods hold it.
    """
    keys = hoods if isinstance(hoods, np.ndarray) else _pad(hoods)
    ids, rows, mask, self_rows = _layout(keys)
    h = _project(tape, leaves, ids)
    attn = [leaves[f"attn.mp{mp.id}"] for mp in params.metapaths]
    a = attn[0] if len(attn) == 1 else tape.concat(attn)
    per_path = tape.multihead_attention(h, rows, mask, a, params.cfg.leaky_slope, self_rows)
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
    `build_user_embeddings` over the user's `neighborhood` keys, which
    `corpus` keeps.

    Per meta-path, the union of the user's sampled walks (see
    ``metapath_neighbors``) is the neighborhood that is aggregated and
    fused. The result is a deterministic function of (params, corpus).
    """
    hood = neighborhood(corpus, user, params.metapaths)
    u, beta = build_user_embeddings(tape, leaves, params, [hood])
    return tape.gather_row(u, 0), tape.gather_row(beta, 0)


# -- numpy-facing wrapper over the tape builders --------------------------


def user_embedding(
    params: EmbedParams,
    graph: HinGraph,
    corpus: PathCorpus,
    user: NodeRef,
) -> UserEmbedding:
    """Fused user embedding over all configured meta-paths, forward only.

    Deterministic given (params, corpus). The user's keys are computed
    for this call and not kept: a `recommend` request walks a corpus of
    its own and embeds its user once, so keys kept by its corpus would
    only hold memory.
    """
    graph._check_node(user)
    tape = Tape(record=False)
    leaves = {k: tape.leaf(v) for k, v in params.tensors.items()}
    keys = neighborhood_keys(corpus, [user], params.metapaths)
    u, beta = build_user_embeddings(tape, leaves, params, keys)
    return UserEmbedding(vector=u.value[0], beta=beta.value[0])
