"""Ranking evaluation under the sampled-negatives protocol.

Each held-out test click is ranked against negatives sampled from the
concepts its user never clicked; HR@K, NDCG@K, MRR and AUC aggregate the
positive's rank over all trials. Reference scorers (uniform random and
click popularity) stand in for external baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .autodiff import Tape
from .embedding import user_embedding
from .graph import HinGraph, NodeRef
from .metapath import PathCorpus
from .model import ModelParams
from .policy import policy_logits

Scorer = Callable[[NodeRef, np.ndarray], np.ndarray]


@dataclass
class TrialSpec:
    user: NodeRef
    positive: int
    candidates: np.ndarray  # positive plus sampled negatives (concept indices)


@dataclass
class RankedTrial:
    user: NodeRef
    positive: int
    candidates: np.ndarray
    scores: np.ndarray
    rank: int  # 1-based rank of the positive after descending-score sort


@dataclass
class EvalReport:
    hr5: float
    hr10: float
    hr20: float
    ndcg5: float
    ndcg10: float
    ndcg20: float
    mrr: float
    auc: float
    n_trials: int

    _COLUMNS = ("HR@5", "HR@10", "HR@20", "NDCG@5", "NDCG@10", "NDCG@20", "MRR", "AUC")

    def values(self) -> tuple[float, ...]:
        """The metric fields, in declaration order, which is `_COLUMNS`'s."""
        return tuple(getattr(self, f.name) for f in fields(self)[: len(self._COLUMNS)])

    def to_tsv(self) -> str:
        """Single line of percentages with 2 decimals, metric-table order."""
        return "\t".join(f"{100.0 * v:.2f}" for v in self.values())

    def pretty(self) -> str:
        lines = [f"{name:>8}: {100.0 * v:6.2f}%" for name, v in zip(self._COLUMNS, self.values())]
        lines.append(f"  trials: {self.n_trials}")
        return "\n".join(lines)


# -- per-metric aggregation ------------------------------------------------


def hit_ratio(trials: Sequence[RankedTrial], k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(1 for t in trials if t.rank <= k)
    return hits / len(trials)


def ndcg(trials: Sequence[RankedTrial], k: int) -> float:
    """Binary-relevance NDCG with a single positive: 1/log2(1+rank) inside
    the cutoff, 0 outside (the ideal ranking normalizes to 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = sum(1.0 / np.log2(1.0 + t.rank) if t.rank <= k else 0.0 for t in trials)
    return total / len(trials)


def mrr(trials: Sequence[RankedTrial]) -> float:
    if not trials:
        raise ValueError("no trials")
    return sum(1.0 / t.rank for t in trials) / len(trials)


def auc(trials: Sequence[RankedTrial]) -> float:
    """Mean per-trial (negatives below positive + half of ties) fraction."""
    total = 0.0
    for t in trials:
        pos_pos = int(np.flatnonzero(t.candidates == t.positive)[0])
        pos_score = t.scores[pos_pos]
        neg_scores = np.delete(t.scores, pos_pos)
        below = np.count_nonzero(neg_scores < pos_score)
        ties = np.count_nonzero(neg_scores == pos_score)
        total += (below + 0.5 * ties) / neg_scores.size
    return total / len(trials)


# -- trial construction and scoring ------------------------------------------


def rank_of_positive(candidates: np.ndarray, scores: np.ndarray, positive: int) -> int:
    """1-based rank under descending score, ties toward smaller concept index."""
    order = np.lexsort((candidates, -scores))
    ranked = candidates[order]
    return int(np.flatnonzero(ranked == positive)[0]) + 1


def build_trials(
    test_positives: Iterable[tuple[NodeRef, int]],
    clicked_by_user: dict[NodeRef, set],
    n_concepts: int,
    n_negatives: int,
    rng: np.random.Generator,
) -> list[TrialSpec]:
    """One trial per test positive with negatives sampled (without
    replacement) from concepts the user never clicked.

    When fewer never-clicked concepts exist than requested, the pool caps
    the negative count; trials with an empty pool are skipped. At least
    one negative must be requested: a trial without one ranks nothing.
    """
    if n_negatives < 1:
        raise ValueError(f"n_negatives must be >= 1, got {n_negatives}")
    trials = []
    all_concepts = np.arange(n_concepts)
    for user, positive in test_positives:
        blocked = [*clicked_by_user.get(user, ()), positive]
        keep = np.ones(n_concepts, dtype=bool)
        keep[[c for c in blocked if 0 <= c < n_concepts]] = False
        pool = all_concepts[keep]
        if pool.size == 0:
            continue
        take = min(n_negatives, pool.size)
        negatives = rng.choice(pool, size=take, replace=False)
        candidates = np.concatenate(([positive], negatives))
        trials.append(TrialSpec(user=user, positive=positive, candidates=candidates))
    return trials


def score_trials(scorer: Scorer, trials: Sequence[TrialSpec]) -> list[RankedTrial]:
    ranked = []
    for spec in trials:
        scores = np.asarray(scorer(spec.user, spec.candidates), dtype=float)
        ranked.append(
            RankedTrial(
                user=spec.user,
                positive=spec.positive,
                candidates=spec.candidates,
                scores=scores,
                rank=rank_of_positive(spec.candidates, scores, spec.positive),
            )
        )
    return ranked


def aggregate(trials: Sequence[RankedTrial]) -> EvalReport:
    return EvalReport(
        hr5=hit_ratio(trials, 5),
        hr10=hit_ratio(trials, 10),
        hr20=hit_ratio(trials, 20),
        ndcg5=ndcg(trials, 5),
        ndcg10=ndcg(trials, 10),
        ndcg20=ndcg(trials, 20),
        mrr=mrr(trials),
        auc=auc(trials),
        n_trials=len(trials),
    )


def evaluate(
    scorer: Scorer,
    test_positives: Iterable[tuple[NodeRef, int]],
    clicked_by_user: dict[NodeRef, set],
    n_concepts: int,
    n_negatives: int = 99,
    seed: int = 0,
) -> EvalReport:
    """Full protocol: sample negatives, score, rank, aggregate.

    The trial set depends only on (test set, seed), so different scorers
    evaluated with the same seed see identical candidate lists.
    """
    rng = np.random.default_rng(seed)
    trials = build_trials(test_positives, clicked_by_user, n_concepts, n_negatives, rng)
    if not trials:
        raise ValueError("evaluation produced no trials")
    return aggregate(score_trials(scorer, trials))


# -- scorers -----------------------------------------------------------------


class PolicyScorer:
    """Greedy (epsilon = 0) concept scores from a trained model.

    User embeddings are computed on the supplied training graph/corpus
    once per user and cached; candidate scores are the policy logits.
    Each user's embedding attends over the union of its sampled walks, so
    the cached logits do not depend on the order in which users are
    scored.
    """

    def __init__(self, model: ModelParams, graph: HinGraph, corpus: PathCorpus):
        self.model = model
        self.graph = graph
        self.corpus = corpus
        self._cache: dict[NodeRef, np.ndarray] = {}

    def logits(self, user: NodeRef) -> np.ndarray:
        cached = self._cache.get(user)
        if cached is not None:
            return cached
        emb = user_embedding(self.model.embed, self.graph, self.corpus, user)
        tape = Tape(record=False)
        logits = policy_logits(tape, self.model.leaves(tape), tape.leaf(emb.vector)).value
        self._cache[user] = logits
        return logits

    def __call__(self, user: NodeRef, candidates: np.ndarray) -> np.ndarray:
        return self.logits(user)[candidates]


class RandomScorer:
    """Uniform random scores from a private seeded stream."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def __call__(self, user: NodeRef, candidates: np.ndarray) -> np.ndarray:
        return self.rng.random(len(candidates))


class PopularityScorer:
    """Scores candidates by training-window click counts."""

    def __init__(self, click_counts: np.ndarray):
        self.counts = np.asarray(click_counts, dtype=float)

    def __call__(self, user: NodeRef, candidates: np.ndarray) -> np.ndarray:
        return self.counts[candidates]
