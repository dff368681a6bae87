"""Ranking evaluation under the sampled-negatives protocol.

Each held-out test click is ranked against negatives sampled from the
concepts its user never clicked; HR@K, NDCG@K, MRR and AUC aggregate the
positive's rank over all trials. Reference scorers (uniform random and
click popularity) stand in for external baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain, islice
from typing import Callable, Iterable, Sequence

import numpy as np

from .autodiff import Tape
# user_embedding is not called here; the benchmark's tracer hooks it by
# this module's name.
from .embedding import build_user_embeddings, neighborhood_keys, user_embedding  # noqa: F401
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
class RankedTrial(TrialSpec):
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


# -- ranks and per-metric aggregation --------------------------------------


def _rank_counts(
    candidates: Sequence[np.ndarray], scores: Sequence[np.ndarray], positives: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per trial: the positive's 1-based rank under descending score, ties
    toward the smaller concept index, and the numbers of negatives scored
    below it and tied with it.

    One pass over the (T, W) matrices of the trials' candidates and
    scores, padded with -1 and NaN: a NaN compares false, so a pad never
    counts. The rank is 1 + #(s > s_pos) + #(s == s_pos and c < pos).
    """
    lengths = np.fromiter(map(len, candidates), dtype=np.int64, count=len(candidates))
    filled = np.arange(lengths.max(initial=0)) < lengths[:, None]
    cands = np.full(filled.shape, -1, dtype=np.int64)
    cands[filled] = np.concatenate(candidates)
    s = np.full(filled.shape, np.nan)
    s[filled] = np.concatenate(scores)
    pos = np.asarray(positives, dtype=np.int64)[:, None]
    is_pos = cands == pos
    s_pos = s[np.arange(len(s)), is_pos.argmax(axis=1)][:, None]
    tied = (s == s_pos) & ~is_pos
    above = np.count_nonzero(s > s_pos, axis=1) + np.count_nonzero(tied & (cands < pos), axis=1)
    return 1 + above, np.count_nonzero(s < s_pos, axis=1), np.count_nonzero(tied, axis=1)


def _ranks(trials: Sequence[RankedTrial]) -> np.ndarray:
    """The trials' ranks; raises ValueError for no trials, where every
    metric is undefined."""
    if not trials:
        raise ValueError("no trials")
    return np.fromiter((t.rank for t in trials), dtype=float, count=len(trials))


def _mean(terms: np.ndarray, n: int) -> float:
    """The sum of per-trial `terms` over `n` trials. The terms are added
    one at a time in trial order, as a loop over the trials adds them;
    ``np.sum`` adds pairwise, which rounds differently."""
    return float(np.cumsum(terms)[-1]) / n


def _gains(ranks: np.ndarray, k: int) -> np.ndarray:
    """Per-trial NDCG@k terms: 1/log2(1+rank) inside the cutoff, else 0."""
    return np.where(ranks <= k, 1.0 / np.log2(1.0 + ranks), 0.0)


def hit_ratio(trials: Sequence[RankedTrial], k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    return int(np.count_nonzero(_ranks(trials) <= k)) / len(trials)


def ndcg(trials: Sequence[RankedTrial], k: int) -> float:
    """Binary-relevance NDCG with a single positive: 1/log2(1+rank) inside
    the cutoff, 0 outside (the ideal ranking normalizes to 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _mean(_gains(_ranks(trials), k), len(trials))


def mrr(trials: Sequence[RankedTrial]) -> float:
    return _mean(1.0 / _ranks(trials), len(trials))


def auc(trials: Sequence[RankedTrial]) -> float:
    """Mean per-trial (negatives below positive + half of ties) fraction."""
    if not trials:
        raise ValueError("no trials")
    cands = [t.candidates for t in trials]
    _, below, tied = _rank_counts(cands, [t.scores for t in trials], [t.positive for t in trials])
    negatives = np.fromiter(map(len, cands), dtype=float, count=len(cands)) - 1
    return _mean((below + 0.5 * tied) / negatives, len(trials))


# -- trial construction and scoring ------------------------------------------


def rank_of_positive(candidates: np.ndarray, scores: np.ndarray, positive: int) -> int:
    """1-based rank under descending score, ties toward smaller concept index."""
    return int(_rank_counts([candidates], [np.asarray(scores, dtype=float)], [positive])[0][0])


# Test positives whose negatives are drawn from one block of generator
# words. On the benchmark's 10x world (2-core x86 VM), blocks of 256 held
# about 2 MB of temporary arrays and drew as fast as blocks of 512;
# blocks of 1,024 held 10 MB and drew a quarter slower. A block takes
# fewer when its users' table of never-clicked concepts would otherwise
# exceed TABLE_CELLS (user, concept) cells.
TRIAL_BLOCK = 256
TABLE_CELLS = 2**20
# The largest pool whose negatives are drawn from words drawn ahead;
# `Generator.choice` draws larger pools' itself.
FLOYD_POOL = 10_000


def _floyd(rng: np.random.Generator, sizes: np.ndarray, takes: np.ndarray, out: np.ndarray) -> int:
    """Draws the rows of `out` that ``rng.choice(size, take, replace=False)``
    draws for each (size, take) of `sizes` and `takes`, in row order, from
    words drawn at once, and returns how many leading rows it drew. It
    stops before the first row whose draws reject a word, and leaves
    `rng` after the words of the rows it drew.

    For pools of at most FLOYD_POOL, `choice` runs Floyd's algorithm:
    for j from size - take to size - 1, it draws v from [0, j] and keeps
    v, or j when v was kept before. It then shuffles: for i from take - 1
    down to 1, it draws from [0, i] and swaps. Every draw from [0, j] with
    j > 0 reads one ``next_uint32`` word w and takes (w * (j + 1)) >> 32,
    unless the low half of that product is below 2**32 mod (j + 1), where
    Lemire's method rejects w and reads another.
    """
    if not sizes.size:
        return 0
    own = sizes == takes  # such a row's first Floyd step draws from [0, 0]
    n_floyd = takes - own
    ends = np.cumsum(n_floyd + takes - 1)
    starts = ends - n_floyd - takes + 1
    state = rng.bit_generator.state
    # rows that all draw from [0, 0] alone read no word; one zero stands in
    words = (
        rng.integers(0, 2**32, size=int(ends[-1]), dtype=np.uint32)
        if ends[-1]
        else np.zeros(1, dtype=np.uint32)
    )
    # by step and row, the bound b of each draw from [0, b - 1] and its
    # word: Floyd's step t draws from [0, j], j = size - take + t, then the
    # shuffle's step s from [0, i], i = take - 1 - s. A step past a row's
    # end has b = 1, as a draw from [0, 0] has: it rejects no word and
    # draws 0.
    width = int(takes.max())
    steps = np.arange(width)[:, None]
    live = steps < takes
    bound = np.empty((2 * width - 1, sizes.size), dtype=np.int32)
    bound[:width] = np.where(live, sizes - takes + 1 + steps, 1)
    bound[width:] = np.maximum(takes - steps[:-1], 1)
    m = np.take(
        words, np.concatenate((starts + steps - own, starts + n_floyd + steps[:-1])), mode="clip"
    ) * bound
    # Lemire's method rejects a word when the low half of word * b is
    # below 2**32 mod b, which is below b
    step, row = np.nonzero((m & 0xFFFFFFFF) < bound)
    rejected = row[m[step, row] & 0xFFFFFFFF < 2**32 % bound[step, row].astype(np.int64)]
    rows = sizes.size
    if rejected.size:
        rows = int(rejected.min())
        rng.bit_generator.state = state
        if starts[rows]:
            rng.integers(0, 2**32, size=int(starts[rows]), dtype=np.uint32)
        if not rows:
            return 0
        sizes, live, bound, m = sizes[:rows], live[:, :rows], bound[:, :rows], m[:, :rows]
    drawn = np.right_shift(m, 32, out=m)
    # Floyd's steps over one flat table of every row's pool, in which the
    # steps past a row's take share one slot at the end
    offsets = np.cumsum(sizes) - sizes
    spare = int(offsets[-1] + sizes[-1])
    picks = np.where(live, offsets + drawn[:width], spare)
    top = np.where(live, offsets - 1 + bound[:width], spare)
    taken = np.zeros(spare + 1, dtype=bool)
    for pick, last in zip(picks, top):
        np.copyto(pick, last, where=taken[pick])
        taken[pick] = True
    # the shuffle's swaps, on the picks as one flat array, step by step
    picks -= offsets
    ordered = picks.reshape(-1)
    every = np.arange(rows)
    for a, b in zip((bound[width:] - 1) * rows + every, drawn[width:] * rows + every):
        ordered[a], ordered[b] = ordered[b], ordered[a]
    picks[~live] = -1
    out[:rows] = picks.T
    return rows


def _pool_ranks(rng: np.random.Generator, sizes: np.ndarray, takes: np.ndarray) -> np.ndarray:
    """The (T, max take) matrix, padded with -1, whose row r holds what
    ``rng.choice(sizes[r], takes[r], replace=False)`` draws when called for
    each row in order, and leaves `rng` where those calls leave it. Rows
    are drawn by `_floyd`; a row whose pool is above FLOYD_POOL, or whose
    draws reject a word, is drawn by `choice` itself."""
    ranks = np.full((sizes.size, int(takes.max(initial=0))), -1, dtype=np.int64)
    done = 0
    while done < sizes.size:
        big = np.flatnonzero(sizes[done:] > FLOYD_POOL)
        stop = done + int(big[0]) if big.size else sizes.size
        done += _floyd(rng, sizes[done:stop], takes[done:stop], ranks[done:stop])
        if done < sizes.size:
            take = int(takes[done])
            ranks[done, :take] = rng.choice(int(sizes[done]), take, replace=False)
            done += 1
    return ranks


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

    The negatives are those that one ``rng.choice(pool, size=take,
    replace=False)`` per trial, in trial order, draws, and `rng` is left
    where those calls leave it. They are drawn for a block of trials at
    a time (see `_block_trials`), as ranks in the pool: the sorted
    never-clicked concepts of the user, without the positive.
    """
    if n_negatives < 1:
        raise ValueError(f"n_negatives must be >= 1, got {n_negatives}")
    size = max(1, min(TRIAL_BLOCK, TABLE_CELLS // max(n_concepts, 1)))
    pairs = iter(test_positives)
    trials: list[TrialSpec] = []
    while block := list(islice(pairs, size)):
        trials += _block_trials(block, clicked_by_user, n_concepts, n_negatives, rng)
    return trials


def _block_trials(
    block: list[tuple[NodeRef, int]],
    clicked_by_user: dict[NodeRef, set],
    n_concepts: int,
    n_negatives: int,
    rng: np.random.Generator,
) -> list[TrialSpec]:
    """The trials of `block`'s test positives, as `build_trials` makes
    them, with every negative drawn in one `_pool_ranks` call."""
    users, positives = zip(*block)
    rows: dict[NodeRef, int] = {}  # each user's row of `keep`
    row = np.array([rows.setdefault(user, len(rows)) for user in users])
    clicked = [[c for c in clicked_by_user.get(user, ()) if 0 <= c < n_concepts] for user in rows]
    # keep[r, c]: whether the user of row r never clicked concept c
    keep = np.ones((len(rows), n_concepts), dtype=bool)
    keep[np.repeat(np.arange(len(rows)), list(map(len, clicked))), list(chain(*clicked))] = False
    # the pools: each row's never-clicked concepts, less the positive
    positive = np.array(positives, dtype=np.int64)
    inside = (positive >= 0) & (positive < n_concepts)
    skip = np.zeros(len(block), dtype=bool)
    skip[inside] = keep[row[inside], positive[inside]]
    tables = np.nonzero(keep)[1]
    counts = np.count_nonzero(keep, axis=1)
    sizes = counts[row] - skip
    kept = np.flatnonzero(sizes)  # a trial with an empty pool is skipped
    skip, positive, sizes = skip[kept], positive[kept], sizes[kept]
    takes = np.minimum(sizes, n_negatives)
    ranks = _pool_ranks(rng, sizes, takes)
    # rank r of a pool is entry r of its row's table, or entry r + 1 from
    # the positive on
    at = (np.cumsum(counts) - counts)[row[kept], None] + ranks
    at += skip[:, None] & (tables[at] >= positive[:, None])
    candidates = np.empty((kept.size, 1 + ranks.shape[1]), dtype=np.int64)
    candidates[:, 0] = positive
    candidates[:, 1:] = tables[at]
    return [
        TrialSpec(user=users[i], positive=positives[i], candidates=cands[: 1 + take])
        for i, cands, take in zip(kept.tolist(), candidates, takes.tolist())
    ]


def score_trials(scorer: Scorer, trials: Sequence[TrialSpec]) -> list[RankedTrial]:
    """Scores each trial's candidates, one scorer call per trial in trial
    order, then ranks every positive in one pass.

    A NaN score ranks nothing, so it raises ValueError, which names the
    user of the first trial that holds one."""
    if not trials:
        return []
    scores = [np.asarray(scorer(spec.user, spec.candidates), dtype=float) for spec in trials]
    nan = np.flatnonzero(np.isnan(np.concatenate(scores)))
    if nan.size:
        ends = np.cumsum(np.fromiter(map(len, scores), dtype=np.int64, count=len(scores)))
        user = trials[int(np.searchsorted(ends, nan[0], side="right"))].user
        raise ValueError(f"NaN score in a trial of {user!r}")
    ranks, _, _ = _rank_counts(
        [spec.candidates for spec in trials], scores, [spec.positive for spec in trials]
    )
    return [
        RankedTrial(
            user=spec.user,
            positive=spec.positive,
            candidates=spec.candidates,
            scores=spec_scores,
            rank=int(rank),
        )
        for spec, spec_scores, rank in zip(trials, scores, ranks)
    ]


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


# Resamples of `paired_difference`'s bootstrap.
BOOTSTRAP_RESAMPLES = 2000


@dataclass
class PairedDifference:
    """Mean per-trial differences a - b of HR@5 and NDCG@10 between two
    scorers ranked on the same trials, each with its 95% percentile
    bootstrap interval, and the number of trials whose rank changed."""

    hr5: float
    hr5_ci: tuple[float, float]
    ndcg10: float
    ndcg10_ci: tuple[float, float]
    changed: int
    n_trials: int

    def pretty(self) -> str:
        return (
            f"HR@5 {self.hr5:+.4f} [{self.hr5_ci[0]:+.4f}, {self.hr5_ci[1]:+.4f}]  "
            f"NDCG@10 {self.ndcg10:+.4f} [{self.ndcg10_ci[0]:+.4f}, {self.ndcg10_ci[1]:+.4f}]  "
            f"ranks changed {self.changed}/{self.n_trials}"
        )


def paired_difference(
    a: Sequence[RankedTrial], b: Sequence[RankedTrial], *, rng: np.random.Generator
) -> PairedDifference:
    """Paired comparison of two rankings of the same trials (same users,
    positives and candidates, in the same order; else ValueError).

    Each of BOOTSTRAP_RESAMPLES resamples draws the trials with
    replacement and takes the mean per-trial difference; the interval
    is the 2.5th to 97.5th percentile of those means.
    """
    if len(a) != len(b) or not all(
        x.user == y.user and x.positive == y.positive
        and np.array_equal(x.candidates, y.candidates)
        for x, y in zip(a, b)
    ):
        raise ValueError("paired rankings must hold the same trials")
    ra, rb = _ranks(a), _ranks(b)
    diffs = np.stack(
        [(ra <= 5).astype(float) - (rb <= 5), _gains(ra, 10) - _gains(rb, 10)], axis=1
    )
    means = np.empty((BOOTSTRAP_RESAMPLES, 2))
    for i in range(BOOTSTRAP_RESAMPLES):
        means[i] = diffs[rng.integers(len(diffs), size=len(diffs))].mean(axis=0)
    lo, hi = np.percentile(means, [2.5, 97.5], axis=0)
    hr5, ndcg10 = diffs.mean(axis=0)
    return PairedDifference(
        hr5=float(hr5),
        hr5_ci=(float(lo[0]), float(hi[0])),
        ndcg10=float(ndcg10),
        ndcg10_ci=(float(lo[1]), float(hi[1])),
        changed=int(np.count_nonzero(ra != rb)),
        n_trials=len(a),
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

    Candidate scores are the policy logits of the user's embedding on the
    supplied training graph and corpus. The first call embeds every user
    of the corpus, CHUNK users per `build_user_embeddings` pass on one
    non-recording tape, and caches their logits. A user that the corpus
    lacks raises as the per-user path does: KeyError when the corpus
    holds no bags for it, ValueError when it is outside the graph. Each
    user's embedding attends over the union of its own sampled walks, so
    the logits do not depend on which users share a chunk, beyond float
    summation order.
    """

    CHUNK = 64

    def __init__(self, model: ModelParams, graph: HinGraph, corpus: PathCorpus):
        self.model = model
        self.graph = graph
        self.corpus = corpus
        self._cache: dict[NodeRef, np.ndarray] = {}

    def _embed(self, users: list[NodeRef]) -> None:
        params = self.model.embed
        tape = Tape(record=False)
        leaves = self.model.leaves(tape)
        for lo in range(0, len(users), self.CHUNK):
            chunk = users[lo : lo + self.CHUNK]
            keys = neighborhood_keys(self.corpus, chunk, params.metapaths)
            u, _ = build_user_embeddings(tape, leaves, params, keys)
            self._cache.update(zip(chunk, policy_logits(tape, leaves, u).value))

    def logits(self, user: NodeRef) -> np.ndarray:
        if not self._cache:
            self._embed(self.corpus.users())
        if user not in self._cache:
            self.graph._check_node(user)
            self._embed([user])
        return self._cache[user]

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
