"""Unfused reference composition of the user embedding, and the
``NodeRef``-list walk sampler and neighbor lists that the array ones
are checked against.

The same HAN-style model as ``hincrec.embedding``, built the long way:
one ``gather_row`` and one ``matvec`` per projected node, and one Python
iteration per attention head and meta-path, from the
scalar and vector primitives of the tape. The fused kernels are checked
against it for values and gradients.

The scalar and vector primitives that only this composition needs
(``add_scalar``, ``slice1d``, ``stack_rows``, ``dot``, ``leaky_relu``)
live here as functions of a tape rather than as ``Tape`` methods; they
record onto the tape like its own primitives do.

So do the numpy-facing views of single stages that only the tests read:
one node's projection, one node's attention weights over a given
neighborhood, one meta-path's aggregation, the path-level weights of
given embeddings and the action distribution of a vector.

``update_objective`` is the REINFORCE objective of an update built the
long way too, as a chain of scalar nodes per step, the reference that
``hincrec.training``'s objective over the first-step matrix is checked
against.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence, Union

import numpy as np

from hincrec.autodiff import ShapeMismatch, Tape, Var, _accum, attention_weights
from hincrec.embedding import EmbedParams, UserEmbedding, _layout, _project, neighborhood
from hincrec.graph import HinGraph, NodeRef, node_key
from hincrec.metapath import RETRY_FACTOR, MetaPath, PathCorpus
from hincrec.policy import ActionSet, PolicyParams, build_action_distribution
from hincrec.training import Episode, discounted_returns


# -- primitives used only by the unfused composition --------------------------


def add_scalar(tape: Tape, x, s) -> Var:
    """Broadcast-add a scalar onto every entry of x."""
    x, s = tape._lift(x), tape._lift(s)
    if s.value.ndim != 0:
        raise ShapeMismatch("add_scalar needs a scalar second operand")

    def backward(g):
        _accum(x, g)
        _accum(s, np.sum(g))

    return tape._emit(x.value + s.value, backward)


def stack_rows(tape: Tape, parts: Sequence) -> Var:
    """Stack equal-length vectors into a matrix, one per row."""
    parts = [tape._lift(p) for p in parts]
    if not parts or any(p.value.ndim != 1 for p in parts):
        raise ShapeMismatch("stack_rows needs a nonempty list of vectors")

    def backward(g):
        for i, p in enumerate(parts):
            _accum(p, g[i])

    return tape._emit(np.stack([p.value for p in parts]), backward)


def dot(tape: Tape, a, b) -> Var:
    a, b = tape._lift(a), tape._lift(b)
    if a.value.ndim != 1 or a.value.shape != b.value.shape:
        raise ShapeMismatch(f"dot {a.value.shape} . {b.value.shape}")

    def backward(g):
        _accum(a, g * b.value)
        _accum(b, g * a.value)

    return tape._emit(np.asarray(a.value @ b.value), backward)


def leaky_relu(tape: Tape, x, slope: float = 0.2) -> Var:
    x = tape._lift(x)

    def backward(g):
        _accum(x, g * np.where(x.value > 0, 1.0, slope))

    return tape._emit(np.where(x.value > 0, x.value, slope * x.value), backward)


def slice1d(tape: Tape, x, start: int, stop: int) -> Var:
    x = tape._lift(x)
    if x.value.ndim != 1:
        raise ShapeMismatch("slice1d expects a vector")

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.value)
        x.grad[start:stop] += g

    return tape._emit(x.value[start:stop], backward)


# -- walks and neighborhoods as NodeRef lists ------------------------------------


def sample_instances(
    graph: HinGraph,
    user: NodeRef,
    mp: MetaPath,
    n: int = 10,
    *,
    rng: np.random.Generator,
) -> list[list[NodeRef]]:
    """``hincrec.metapath.sample_instances`` over ``graph.neighbors``
    lists: one ``rng.integers(degree)`` per hop, including degree 1, and
    walks as lists of NodeRefs."""
    out: list[list[NodeRef]] = []
    retries = 0
    while len(out) < n:
        walk = [user]
        for rel in mp.relations:
            nbrs = graph.neighbors(walk[-1], rel)
            if not nbrs:
                walk = []
                break
            walk.append(nbrs[int(rng.integers(len(nbrs)))])
        if walk:
            out.append(walk)
        else:
            retries += 1
            if retries >= RETRY_FACTOR * n:
                break
    return out


def neighbor_refs(corpus: PathCorpus, user: NodeRef, mp: MetaPath) -> list[NodeRef]:
    """``hincrec.metapath.metapath_neighbors`` as NodeRefs: the user, then
    the distinct nodes of the bag's walks in first-seen order."""
    return list(dict.fromkeys(chain((user,), *corpus.bag(user, mp.id))))


def keys_of(refs: Sequence[NodeRef]) -> np.ndarray:
    return np.array([node_key(ref) for ref in refs], dtype=np.int64)


# -- the unfused user embedding ------------------------------------------------


class ProjectionCache:
    """Projects each node at most once per forward pass."""

    def __init__(self, tape: Tape, leaves: dict[str, Var]):
        self.tape = tape
        self.leaves = leaves
        self._cache: dict[NodeRef, Var] = {}

    def __call__(self, node: NodeRef) -> Var:
        var = self._cache.get(node)
        if var is None:
            h = self.tape.gather_row(self.leaves[f"feat.{node.type.value}"], node.index)
            var = self.tape.matvec(self.leaves[f"proj.{node.type.value}"], h)
            self._cache[node] = var
        return var


def attention_logits(
    tape: Tape, attn_row: Var, h_self: Var, h_nbrs: Var, f1: int, slope: float
) -> Var:
    # a . [h_i || h_j] split into the self and neighbor halves of a.
    a_self = slice1d(tape, attn_row, 0, f1)
    a_nbr = slice1d(tape, attn_row, f1, 2 * f1)
    s_self = dot(tape, a_self, h_self)
    s_nbrs = tape.matvec(h_nbrs, a_nbr)
    return leaky_relu(tape, add_scalar(tape, s_nbrs, s_self), slope)


def path_embedding(
    tape: Tape,
    leaves: dict[str, Var],
    params: EmbedParams,
    user: NodeRef,
    neighborhood: list[NodeRef],
    mp: MetaPath,
    project: ProjectionCache,
) -> Var:
    """Multi-head attention aggregation over one meta-path neighborhood."""
    cfg = params.cfg
    h_self = project(user)
    h_nbrs = stack_rows(tape, [project(j) for j in neighborhood])
    attn = leaves[f"attn.mp{mp.id}"]
    heads = []
    for head in range(cfg.heads):
        row = tape.gather_row(attn, head)
        logits = attention_logits(tape, row, h_self, h_nbrs, cfg.head_dim, cfg.leaky_slope)
        alpha = tape.softmax(logits)
        agg = tape.matvec_t(h_nbrs, alpha)
        heads.append(leaky_relu(tape, agg, cfg.leaky_slope))
    return heads[0] if len(heads) == 1 else tape.concat(heads)


def path_score(tape: Tape, leaves: dict[str, Var], emb: Var) -> Var:
    hidden = tape.tanh(tape.vecadd(tape.matvec(leaves["path.W"], emb), leaves["path.b"]))
    return dot(tape, leaves["path.q"], hidden)


def user_embedding(
    tape: Tape,
    leaves: dict[str, Var],
    params: EmbedParams,
    corpus: PathCorpus,
    user: NodeRef,
    project: Optional[ProjectionCache] = None,
) -> tuple[Var, Var]:
    """(user vector, beta) as ``hincrec.embedding.build_user_embedding``."""
    if project is None:
        project = ProjectionCache(tape, leaves)
    per_path: list[Var] = []
    scores: list[Var] = []
    for mp in params.metapaths:
        nbrs = neighbor_refs(corpus, user, mp)
        emb = path_embedding(tape, leaves, params, user, nbrs, mp, project)
        per_path.append(emb)
        scores.append(path_score(tape, leaves, emb))
    beta = tape.softmax(tape.concat(scores))
    fused = None
    for k, emb in enumerate(per_path):
        term = tape.scale(emb, tape.gather_row(beta, k))
        fused = term if fused is None else tape.vecadd(fused, term)
    return fused, beta


# -- numpy-facing views of single stages -----------------------------------------


def _const_leaves(tape: Tape, tensors: dict[str, np.ndarray]) -> dict[str, Var]:
    return {k: tape.leaf(v) for k, v in tensors.items()}


def project(params: EmbedParams, node: NodeRef) -> np.ndarray:
    """Projected feature of one node: M_type @ h_node."""
    tape = Tape(record=False)
    return ProjectionCache(tape, _const_leaves(tape, params.tensors))(node).value


def node_aggregate(
    params: EmbedParams, node: NodeRef, mp: MetaPath, corpus: PathCorpus
) -> np.ndarray:
    """The fused multi-head aggregation along one meta-path, over the
    union of the node's sampled walks: a batch of one node and one path."""
    tape = Tape(record=False)
    leaves = _const_leaves(tape, params.tensors)
    ids, rows, mask, self_rows = _layout(neighborhood(corpus, node, [mp])[None])
    h = _project(tape, leaves, ids)
    a = leaves[f"attn.mp{mp.id}"]
    slope = params.cfg.leaky_slope
    return tape.multihead_attention(h, rows, mask, a, slope, self_rows).value[0, 0]


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
    leaves = _const_leaves(tape, params.tensors)
    # the node leads its keys so that its row is laid out, then attends
    # over the neighborhood as given
    ids, rows, mask, self_rows = _layout(keys_of([node, *neighborhood])[None, None])
    h = _project(tape, leaves, ids).value
    a = leaves[f"attn.mp{mp.id}"].value
    _, _, alpha = attention_weights(
        h, rows[..., 1:], mask[..., 1:], a, params.cfg.leaky_slope, self_rows
    )
    return alpha[0, 0, head]


def path_attention(
    params: EmbedParams, embeddings: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Path-level weights over per-meta-path embeddings: (beta, raw scores)."""
    tape = Tape(record=False)
    leaves = _const_leaves(tape, params.tensors)
    scores = tape.concat([path_score(tape, leaves, tape.leaf(e)) for e in embeddings])
    return tape.softmax(scores).value, scores.value


def action_distribution(
    policy: PolicyParams, u: Union[UserEmbedding, np.ndarray], actions: ActionSet
) -> np.ndarray:
    """Probability vector over all K concepts; masked entries are exactly 0."""
    vec = u.vector if isinstance(u, UserEmbedding) else np.asarray(u, dtype=float)
    tape = Tape(record=False)
    leaves = _const_leaves(tape, policy.tensors)
    return build_action_distribution(tape, leaves, policy, tape.leaf(vec), actions).value


# -- the REINFORCE objective as scalar nodes -------------------------------------


def update_objective(episodes: Sequence[Episode], lam: float) -> tuple[Var, list[float]]:
    """The summed objective of an update's episodes on their tape, and each
    episode's objective value, as per-step scalar nodes: every step's
    distribution is a vector (a first step's is its row of the first-step
    matrix), ``log`` of its taken entry is ``scale``d by the step's return,
    and ``vsum(plogp)`` of it is its negative entropy; the episode's terms
    and then the episodes' objectives are chained by ``vecadd``."""
    tape = episodes[0].first.tape
    objectives = []
    for episode in episodes:
        first = episode.first
        returns = discounted_returns([s.reward for s in episode.steps], episode.gamma)
        dists = [tape.gather_row(first.dists, first.row)]
        dists += [rec.dist for rec in episode.steps[1:]]
        pg = None
        for rec, dist, ret in zip(episode.steps, dists, returns):
            term = tape.scale(tape.log(tape.gather_row(dist, rec.action)), ret)
            pg = term if pg is None else tape.vecadd(pg, term)
        negent = None
        for dist in dists:
            e = tape.vsum(tape.plogp(dist))
            negent = e if negent is None else tape.vecadd(negent, e)
        objectives.append(tape.vecadd(pg, tape.scale(negent, -lam)))
    total = objectives[0]
    for obj in objectives[1:]:
        total = tape.vecadd(total, obj)
    return total, [float(obj.value) for obj in objectives]
