"""Unfused reference composition of the user embedding.

The same HAN-style model as ``hincrec.embedding``, built the long way:
one ``gather_row`` and one ``matvec`` per projected node, and one Python
iteration per attention head, meta-path and sampled instance, from the
scalar and vector primitives of the tape. The fused kernels are checked
against it for values and gradients.
"""

from __future__ import annotations

from typing import Optional

from hincrec.autodiff import Tape, Var
from hincrec.embedding import EmbedParams
from hincrec.graph import NodeRef
from hincrec.metapath import MetaPath, PathCorpus, distinct_nodes, metapath_neighbors


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
    a_self = tape.slice1d(attn_row, 0, f1)
    a_nbr = tape.slice1d(attn_row, f1, 2 * f1)
    s_self = tape.dot(a_self, h_self)
    s_nbrs = tape.matvec(h_nbrs, a_nbr)
    return tape.leaky_relu(tape.add_scalar(s_nbrs, s_self), slope)


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
    h_nbrs = tape.stack_rows([project(j) for j in neighborhood])
    attn = leaves[f"attn.mp{mp.id}"]
    heads = []
    for head in range(cfg.heads):
        row = tape.gather_row(attn, head)
        logits = attention_logits(tape, row, h_self, h_nbrs, cfg.head_dim, cfg.leaky_slope)
        alpha = tape.softmax(logits)
        agg = tape.matvec_t(h_nbrs, alpha)
        heads.append(tape.leaky_relu(agg, cfg.leaky_slope))
    return heads[0] if len(heads) == 1 else tape.concat(heads)


def path_score(tape: Tape, leaves: dict[str, Var], emb: Var) -> Var:
    hidden = tape.tanh(tape.vecadd(tape.matvec(leaves["path.W"], emb), leaves["path.b"]))
    return tape.dot(leaves["path.q"], hidden)


def user_embedding(
    tape: Tape,
    leaves: dict[str, Var],
    params: EmbedParams,
    corpus: PathCorpus,
    user: NodeRef,
    project: Optional[ProjectionCache] = None,
) -> tuple[Var, Var]:
    """(user vector, beta) as ``hincrec.embedding.build_user_embedding``."""
    cfg = params.cfg
    if project is None:
        project = ProjectionCache(tape, leaves)
    per_path: list[Var] = []
    scores: list[Var] = []
    for mp in params.metapaths:
        nbrs = metapath_neighbors(corpus, user, mp)
        emb = path_embedding(tape, leaves, params, user, nbrs, mp, project)
        per_path.append(emb)
        if cfg.average_path_scores:
            insts = corpus.bag(user, mp.id) or [[user]]
            inst_scores = [
                path_score(
                    tape,
                    leaves,
                    path_embedding(
                        tape, leaves, params, user, distinct_nodes(user, [inst]), mp, project
                    ),
                )
                for inst in insts
            ]
            total = inst_scores[0]
            for s in inst_scores[1:]:
                total = tape.vecadd(total, s)
            scores.append(tape.scale(total, 1.0 / len(inst_scores)))
        else:
            scores.append(path_score(tape, leaves, emb))
    beta = tape.softmax(tape.concat(scores))
    fused = None
    for k, emb in enumerate(per_path):
        term = tape.scale(emb, tape.gather_row(beta, k))
        fused = term if fused is None else tape.vecadd(fused, term)
    return fused, beta
