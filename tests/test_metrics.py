import math

import numpy as np
import pytest

from hincrec.graph import NodeRef, NodeType
from hincrec.metrics import (
    EvalReport,
    PopularityScorer,
    RandomScorer,
    RankedTrial,
    TrialSpec,
    aggregate,
    auc,
    build_trials,
    evaluate,
    hit_ratio,
    mrr,
    ndcg,
    rank_of_positive,
    score_trials,
)

U = NodeType.USER


def trial_with_rank(rank, n_candidates=100, user_idx=0):
    """Construct a trial whose positive lands at the requested rank."""
    candidates = np.arange(n_candidates)
    positive = rank - 1  # scores strictly decreasing by candidate index
    scores = np.linspace(1.0, 0.0, n_candidates)
    t = RankedTrial(
        user=NodeRef(U, user_idx),
        positive=positive,
        candidates=candidates,
        scores=scores,
        rank=rank_of_positive(candidates, scores, positive),
    )
    assert t.rank == rank
    return t


class TestSpotValues:
    def test_hit_ratio_mixed(self):
        trials = [trial_with_rank(r) for r in (1, 6, 3, 50)]
        assert hit_ratio(trials, 5) == 0.5

    def test_hit_ratio_all_first(self):
        trials = [trial_with_rank(1) for _ in range(4)]
        assert hit_ratio(trials, 5) == 1.0

    def test_hit_ratio_single_miss(self):
        assert hit_ratio([trial_with_rank(7)], 5) == 0.0

    def test_ndcg_rank_one(self):
        assert ndcg([trial_with_rank(1)], 10) == 1.0

    def test_ndcg_rank_three_is_half(self):
        assert ndcg([trial_with_rank(3)], 10) == pytest.approx(0.5)

    def test_ndcg_outside_cutoff(self):
        assert ndcg([trial_with_rank(11)], 10) == 0.0

    def test_mrr_closed_form(self):
        trials = [trial_with_rank(r) for r in (1, 2, 4)]
        assert mrr(trials) == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert mrr(trials) == pytest.approx(0.5833333333333334)

    def test_mrr_all_first(self):
        assert mrr([trial_with_rank(1)] * 3) == 1.0

    def test_mrr_rank_100(self):
        assert mrr([trial_with_rank(100)]) == pytest.approx(0.01)

    def test_auc_positive_above_all(self):
        assert auc([trial_with_rank(1)]) == 1.0

    def test_auc_positive_below_all(self):
        assert auc([trial_with_rank(100)]) == 0.0

    def test_auc_all_tied_is_half(self):
        candidates = np.arange(100)
        scores = np.ones(100)
        t = RankedTrial(
            user=NodeRef(U, 0),
            positive=42,
            candidates=candidates,
            scores=scores,
            rank=rank_of_positive(candidates, scores, 42),
        )
        assert auc([t]) == 0.5


class TestRanking:
    def test_rank_descending_with_index_ties(self):
        candidates = np.array([7, 3, 9, 1])
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        # order: 3 (0.9), then tie 0.5 between 7 and 9 -> smaller index first
        assert rank_of_positive(candidates, scores, 3) == 1
        assert rank_of_positive(candidates, scores, 7) == 2
        assert rank_of_positive(candidates, scores, 9) == 3
        assert rank_of_positive(candidates, scores, 1) == 4

    def test_rank_deterministic(self):
        rng = np.random.default_rng(0)
        candidates = rng.permutation(50)
        scores = np.round(rng.random(50), 1)  # force plenty of ties
        ranks = {rank_of_positive(candidates, scores, int(c)) for c in candidates}
        assert ranks == set(range(1, 51))

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            candidates = rng.permutation(30)
            scores = rng.random(30)
            pos = int(candidates[5])
            r1 = rank_of_positive(candidates, scores, pos)
            r2 = rank_of_positive(candidates, scores * 37.5, pos)
            assert r1 == r2


# -- independent brute-force reference (tests/oracles.py) --------------------

from oracles import brute_metrics, brute_rank  # noqa: E402


class TestBruteForceEquivalence:
    def test_hundred_random_trials(self):
        rng = np.random.default_rng(99)
        raw = []
        ranked = []
        for i in range(100):
            m = int(rng.integers(20, 101))
            candidates = rng.choice(500, size=m, replace=False)
            scores = np.round(rng.random(m), 2)  # coarse grid -> real ties
            positive = int(candidates[rng.integers(m)])
            raw.append((candidates, scores, positive))
            ranked.append(
                RankedTrial(
                    user=NodeRef(U, i),
                    positive=positive,
                    candidates=candidates,
                    scores=scores,
                    rank=rank_of_positive(candidates, scores, positive),
                )
            )
        ref = brute_metrics(raw, (5, 10, 20))
        for k in (5, 10, 20):
            assert abs(hit_ratio(ranked, k) - ref[f"hr@{k}"]) < 1e-12
            assert abs(ndcg(ranked, k) - ref[f"ndcg@{k}"]) < 1e-12
        assert abs(mrr(ranked) - ref["mrr"]) < 1e-12
        assert abs(auc(ranked) - ref["auc"]) < 1e-12


class TestReportInvariants:
    def _random_report(self, seed):
        rng = np.random.default_rng(seed)
        trials = [trial_with_rank(int(rng.integers(1, 101))) for _ in range(200)]
        return aggregate(trials)

    def test_monotonic_in_k_and_bounds(self):
        for seed in range(5):
            rep = self._random_report(seed)
            assert rep.hr5 <= rep.hr10 <= rep.hr20
            assert rep.ndcg5 <= rep.ndcg10 <= rep.ndcg20
            assert rep.ndcg5 <= rep.hr5
            assert rep.ndcg10 <= rep.hr10
            assert rep.ndcg20 <= rep.hr20
            for v in rep.values():
                assert 0.0 <= v <= 1.0

    def test_tsv_format(self):
        rep = EvalReport(0.6621, 0.8153, 0.8874, 0.4621, 0.5135, 0.5322, 0.4282, 0.8964, 10)
        line = rep.to_tsv()
        assert line == "66.21\t81.53\t88.74\t46.21\t51.35\t53.22\t42.82\t89.64"
        assert "HR@5" in rep.pretty()


class TestProtocol:
    def test_negatives_avoid_clicked_and_positive(self):
        rng = np.random.default_rng(0)
        user = NodeRef(U, 0)
        clicked = {user: {1, 2, 3, 40}}
        trials = build_trials([(user, 40)], clicked, 120, 99, rng)
        (spec,) = trials
        assert spec.candidates[0] == 40
        negatives = set(spec.candidates[1:])
        assert len(spec.candidates) == 100
        assert len(negatives) == 99  # without replacement
        assert negatives.isdisjoint(clicked[user])

    def test_pool_capping(self):
        rng = np.random.default_rng(0)
        user = NodeRef(U, 0)
        clicked = {user: set(range(10))}
        trials = build_trials([(user, 5)], clicked, 12, 99, rng)
        (spec,) = trials
        assert len(spec.candidates) == 3  # positive + the 2 never-clicked

    def test_pool_matches_comprehension(self):
        # the pool as a Python comprehension over all K concepts; clicked ids
        # outside [0, K) and users with an empty pool included
        def reference(test_positives, clicked_by_user, n_concepts, n_negatives, rng):
            out = []
            for user, positive in test_positives:
                clicked = clicked_by_user.get(user, set())
                pool = np.array(
                    [c for c in np.arange(n_concepts) if c not in clicked and c != positive]
                )
                if pool.size == 0:
                    continue
                negatives = rng.choice(pool, size=min(n_negatives, pool.size), replace=False)
                out.append((user, positive, np.concatenate(([positive], negatives))))
            return out

        gen = np.random.default_rng(8)
        for case in range(40):
            n_concepts = int(gen.integers(1, 60))
            users = [NodeRef(U, i) for i in range(12)]
            clicked = {
                u: {int(c) for c in gen.integers(-3, n_concepts + 3, gen.integers(0, 15))}
                for u in users[:10]
            }
            clicked[users[0]] = set(range(n_concepts))
            positives = [(u, int(gen.integers(n_concepts))) for u in users]
            want = reference(positives, clicked, n_concepts, 7, np.random.default_rng(case))
            got = build_trials(positives, clicked, n_concepts, 7, np.random.default_rng(case))
            assert len(got) == len(want)
            for spec, (user, positive, candidates) in zip(got, want):
                assert (spec.user, spec.positive) == (user, positive)
                assert spec.candidates.dtype == candidates.dtype
                assert np.array_equal(spec.candidates, candidates)

    def test_trials_fixed_across_scorers(self):
        users = [NodeRef(U, i) for i in range(50)]
        positives = [(u, (i * 3) % 100) for i, u in enumerate(users)]
        clicked = {u: {p} for (u, p) in positives}
        a = build_trials(positives, clicked, 150, 99, np.random.default_rng(5))
        b = build_trials(positives, clicked, 150, 99, np.random.default_rng(5))
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.candidates, tb.candidates)

    def test_perfect_oracle_scorer(self):
        users = [NodeRef(U, i) for i in range(40)]
        positives = [(u, i % 97) for i, u in enumerate(users)]
        clicked = {u: {p} for (u, p) in positives}
        by_user = dict(positives)

        def oracle(user, candidates):
            return (candidates == by_user[user]).astype(float)

        rep = evaluate(oracle, positives, clicked, 120, n_negatives=99, seed=3)
        assert rep.values() == (1.0,) * 8

    def test_random_scorer_calibration(self):
        # analytic oracle: uniform rank over 100 candidates
        n_trials = 2500
        users = [NodeRef(U, i) for i in range(n_trials)]
        positives = [(u, i % 150) for i, u in enumerate(users)]
        clicked = {u: {p} for (u, p) in positives}
        rep = evaluate(
            RandomScorer(7), positives, clicked, 250, n_negatives=99, seed=11
        )
        # HR@5: mean 0.05, sigma = sqrt(p(1-p)/n)
        sigma_hr = math.sqrt(0.05 * 0.95 / n_trials)
        assert abs(rep.hr5 - 0.05) <= 3 * sigma_hr
        # MRR: mean H_100/100
        h100 = sum(1.0 / k for k in range(1, 101))
        mean_mrr = h100 / 100
        var_mrr = sum((1.0 / k) ** 2 for k in range(1, 101)) / 100 - mean_mrr**2
        assert abs(rep.mrr - mean_mrr) <= 3 * math.sqrt(var_mrr / n_trials)
        # AUC: mean 0.5, per-trial variance of (100-r)/99 under uniform r
        var_auc = (100**2 - 1) / 12 / 99**2
        assert abs(rep.auc - 0.5) <= 3 * math.sqrt(var_auc / n_trials)

    def test_popularity_scorer(self):
        counts = np.array([5.0, 1.0, 9.0, 0.0])
        scorer = PopularityScorer(counts)
        assert np.array_equal(
            scorer(NodeRef(U, 0), np.array([2, 0, 3])), [9.0, 5.0, 0.0]
        )

    def test_empty_trials_rejected(self):
        with pytest.raises(ValueError):
            evaluate(RandomScorer(0), [], {}, 10, seed=0)
