import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from hincrec import metrics
from hincrec.graph import NodeRef, NodeType
from hincrec.metrics import (
    EvalReport,
    PopularityScorer,
    RandomScorer,
    RankedTrial,
    TrialSpec,
    aggregate,
    build_trials,
    evaluate,
    paired_difference,
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
        assert aggregate(trials).hr5 == 0.5

    def test_hit_ratio_all_first(self):
        trials = [trial_with_rank(1) for _ in range(4)]
        assert aggregate(trials).hr5 == 1.0

    def test_hit_ratio_single_miss(self):
        assert aggregate([trial_with_rank(7)]).hr5 == 0.0

    def test_ndcg_rank_one(self):
        assert aggregate([trial_with_rank(1)]).ndcg10 == 1.0

    def test_ndcg_rank_three_is_half(self):
        assert aggregate([trial_with_rank(3)]).ndcg10 == pytest.approx(0.5)

    def test_ndcg_outside_cutoff(self):
        assert aggregate([trial_with_rank(11)]).ndcg10 == 0.0

    def test_mrr_closed_form(self):
        trials = [trial_with_rank(r) for r in (1, 2, 4)]
        assert aggregate(trials).mrr == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert aggregate(trials).mrr == pytest.approx(0.5833333333333334)

    def test_mrr_all_first(self):
        assert aggregate([trial_with_rank(1)] * 3).mrr == 1.0

    def test_mrr_rank_100(self):
        assert aggregate([trial_with_rank(100)]).mrr == pytest.approx(0.01)

    def test_auc_positive_above_all(self):
        assert aggregate([trial_with_rank(1)]).auc == 1.0

    def test_auc_positive_below_all(self):
        assert aggregate([trial_with_rank(100)]).auc == 0.0

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
        assert aggregate([t]).auc == 0.5


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
        report = aggregate(ranked)
        for k in (5, 10, 20):
            assert abs(getattr(report, f"hr{k}") - ref[f"hr@{k}"]) < 1e-12
            assert abs(getattr(report, f"ndcg{k}") - ref[f"ndcg@{k}"]) < 1e-12
        assert abs(report.mrr - ref["mrr"]) < 1e-12
        assert abs(report.auc - ref["auc"]) < 1e-12


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


class TestPinnedReport:
    """The report of 2,000 seeded trials, bit for bit: a change to how
    `aggregate` computes the metrics must not move a single bit."""

    PINNED = [
        "0x1.5a1cac083126fp-3",  # HR@5
        "0x1.24dd2f1a9fbe7p-2",  # HR@10
        "0x1.d6872b020c49cp-2",  # HR@20
        "0x1.9ee5a968e9372p-4",  # NDCG@5
        "0x1.1be96cc1997f6p-3",  # NDCG@10
        "0x1.7542bd7d22f25p-3",  # NDCG@20
        "0x1.e9d9e1f188d86p-4",  # MRR
        "0x1.033f35a4ed943p-1",  # AUC
    ]

    @staticmethod
    def pinned_trials():
        """Trials of 2 to 120 candidates out of 500 concepts, scored on a
        grid of 0.01 so that positives tie with negatives."""
        rng = np.random.default_rng(2500)
        specs, scores = [], []
        for i in range(2000):
            m = int(rng.integers(2, 121))
            candidates = rng.choice(500, size=m, replace=False)
            specs.append(TrialSpec(NodeRef(U, i), int(candidates[rng.integers(m)]), candidates))
            scores.append(np.round(rng.random(m), 2))
        return score_trials(lambda user, candidates: scores[user.index], specs)

    def test_report_bits(self):
        trials = self.pinned_trials()
        tied = sum(np.count_nonzero(t.scores == t.scores[t.candidates == t.positive][0]) > 1
                   for t in trials)
        assert tied >= 500
        report = aggregate(trials)
        assert [v.hex() for v in report.values()] == self.PINNED
        assert report.n_trials == 2000


def reference_trials(test_positives, clicked_by_user, n_concepts, n_negatives, rng):
    """`build_trials` as (user, positive, candidates) triples: the pool as a
    Python comprehension over all K concepts, one `rng.choice` per trial."""
    out = []
    for user, positive in test_positives:
        clicked = clicked_by_user.get(user, set())
        pool = np.array([c for c in np.arange(n_concepts) if c not in clicked and c != positive])
        if pool.size == 0:
            continue
        negatives = rng.choice(pool, size=min(n_negatives, pool.size), replace=False)
        out.append((user, positive, np.concatenate(([positive], negatives))))
    return out


def assert_trials_match_reference(positives, clicked, n_concepts, n_negatives, make_rng):
    """`build_trials` and `reference_trials`, each on a generator from
    `make_rng`, give the same trials and leave the generators alike."""
    got_rng, want_rng = make_rng(), make_rng()
    got = build_trials(positives, clicked, n_concepts, n_negatives, got_rng)
    want = reference_trials(positives, clicked, n_concepts, n_negatives, want_rng)
    assert len(got) == len(want)
    for spec, (user, positive, candidates) in zip(got, want):
        assert (spec.user, spec.positive) == (user, positive)
        assert spec.candidates.dtype == candidates.dtype
        assert np.array_equal(spec.candidates, candidates)
    np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)
    assert got_rng.integers(2**63) == want_rng.integers(2**63)
    return got


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
        # clicked ids outside [0, K) and users with an empty pool included
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
            assert_trials_match_reference(
                positives, clicked, n_concepts, 7, lambda: np.random.default_rng(case)
            )

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

    @pytest.mark.parametrize("n_negatives", [0, -1])
    def test_fewer_than_one_negative_rejected(self, n_negatives):
        # a trial without a negative ranks nothing; AUC would read 0/0
        positives = [(NodeRef(U, 0), 3)]
        with pytest.raises(ValueError, match="n_negatives"):
            build_trials(positives, {}, 10, n_negatives, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n_negatives"):
            evaluate(RandomScorer(0), positives, {}, 10, n_negatives=n_negatives, seed=0)


# -- negatives drawn from blocks of words, against one `choice` per trial -------

BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


def serve_sized():
    """500 concepts and 99 negatives, as the benchmark's 10x world has,
    over 2,600 trials of 700 users (more than two blocks of trials)."""
    gen = np.random.default_rng(30)
    users = [NodeRef(U, i) for i in range(700)]
    clicked = {u: set(gen.choice(500, int(gen.integers(5, 40)), replace=False).tolist())
               for u in users}
    positives = [(users[int(i)], int(gen.integers(500)))
                 for i in np.sort(gen.integers(700, size=2600))]
    return positives, clicked, 500, 99


def small_pools():
    """Pools of exactly 99 concepts (Floyd's first step draws from [0, 0])
    and of 1 to 98, mixed with larger ones."""
    users = [NodeRef(U, i) for i in range(60)]
    # a user that clicked concepts 0 to c - 1 keeps 120 - c, less its positive
    counts = [20, 21, 25, 60, 100, 118, 117, 5]
    clicked = {u: set(range(counts[i % len(counts)])) for i, u in enumerate(users)}
    positives = [(u, positive) for u in users for positive in (119, 118)]
    return positives, clicked, 120, 99


def positives_outside_the_pool():
    """Clicked positives, positives outside [0, K) and an empty pool."""
    users = [NodeRef(U, i) for i in range(6)]
    clicked = {users[0]: set(range(30)), users[1]: {3, 4, 5, -2, 31}, users[2]: {7}}
    positives = [
        (users[0], 4),  # empty pool: skipped
        (users[1], 4),  # clicked positive
        (users[2], -1), (users[3], 30), (users[4], 45),  # outside [0, K)
        (users[2], 7), (users[5], 0), (users[1], 29),
    ]
    return positives, clicked, 30, 12


def big_pools():
    """Pools above FLOYD_POOL, which `choice` draws itself, between
    smaller ones, at 99 negatives and at more than a fiftieth of the pool."""
    users = [NodeRef(U, i) for i in range(4)]
    clicked = {users[0]: {0}, users[2]: set(range(100))}
    positives = [(users[i % 4], 500 + i) for i in range(8)]
    return positives, clicked, 10_002, 99


def big_pools_many_negatives():
    positives, clicked, n_concepts, _ = big_pools()
    return positives, clicked, n_concepts, 250


CASES = [serve_sized, small_pools, positives_outside_the_pool, big_pools,
         big_pools_many_negatives]


def modelled_choice(rng, size, take):
    """What ``rng.choice(size, take, replace=False)`` draws, in pure Python
    from the bit generator's ``next_uint32`` words, and how many words
    Lemire's method rejected: Floyd's algorithm, then a shuffle."""
    iface = rng.bit_generator.ctypes
    rejected = 0

    def draw(j):  # uniform on [0, j]
        nonlocal rejected
        if j == 0:
            return 0
        while True:
            m = iface.next_uint32(iface.state) * (j + 1)
            if m & 0xFFFFFFFF >= 2**32 % (j + 1):
                return m >> 32
            rejected += 1

    picks = []
    for j in range(size - take, size):
        v = draw(j)
        picks.append(j if v in picks else v)
    for i in range(take - 1, 0, -1):
        d = draw(i)
        picks[i], picks[d] = picks[d], picks[i]
    return picks, rejected


# A seed per bit generator whose stream, under `redraw_case`, holds a word
# that Lemire's method rejects within the first few trials.
REDRAW_SEEDS = {"PCG64": 642, "MT19937": 191, "Philox": 214, "SFC64": 68}


def redraw_case():
    """40 trials, each with a pool of 9,999 of 10,000 concepts."""
    positives = [(NodeRef(U, i), 17 * i) for i in range(40)]
    return positives, {}, 10_000, 99


class TestBlockDraws:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
    def test_match_one_choice_per_trial(self, case, bit_generator):
        positives, clicked, n_concepts, n_negatives = case()
        trials = assert_trials_match_reference(
            positives, clicked, n_concepts, n_negatives,
            lambda: np.random.Generator(bit_generator(5)),
        )
        assert trials

    def test_cases_cover_what_they_name(self):
        positives, clicked, n_concepts, n_negatives = serve_sized()
        assert len(build_trials(positives, clicked, n_concepts, n_negatives,
                                np.random.default_rng(0))) > 2 * metrics.TRIAL_BLOCK
        for case, sizes in ((small_pools, {1, 2, 98, 99}), (big_pools, {10_000, 10_001})):
            positives, clicked, n_concepts, n_negatives = case()
            trials = build_trials(positives, clicked, n_concepts, n_negatives,
                                  np.random.default_rng(0))
            pools = {n_concepts - len(set(clicked.get(t.user, ())) | {t.positive})
                     for t in trials}
            assert sizes <= pools
        assert len(build_trials(*positives_outside_the_pool(), np.random.default_rng(0))) == 7

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
    def test_a_rejected_word_matches_choice(self, bit_generator):
        positives, clicked, n_concepts, n_negatives = redraw_case()
        seed = REDRAW_SEEDS[bit_generator.__name__]
        model, check = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        rejected = 0
        for _ in positives:
            picks, r = modelled_choice(model, n_concepts - 1, n_negatives)
            assert picks == check.choice(n_concepts - 1, n_negatives, replace=False).tolist()
            rejected += r
        assert rejected >= 1
        assert_trials_match_reference(positives, clicked, n_concepts, n_negatives,
                                      lambda: np.random.Generator(bit_generator(seed)))


@pytest.mark.parametrize(
    "metric",
    [aggregate, lambda t: paired_difference(t, t, rng=np.random.default_rng(0))],
    ids=["aggregate", "paired_difference"],
)
def test_no_trials_raise_one_error(metric):
    with pytest.raises(ValueError, match="^no trials$"):
        metric([])


# -- paired comparison -----------------------------------------------------------


def ranked_as(ranks, positive=0):
    """One trial per rank, trial i for user i over the same 100 candidates;
    only the rank differs between two calls."""
    return [
        RankedTrial(NodeRef(U, i), positive, np.arange(100), np.zeros(100), rank)
        for i, rank in enumerate(ranks)
    ]


class TestPairedDifference:
    def test_identical_rankings_differ_by_nothing(self):
        a = ranked_as([1, 6, 3, 12, 40])
        diff = paired_difference(a, ranked_as([1, 6, 3, 12, 40]), rng=np.random.default_rng(0))
        assert (diff.hr5, diff.ndcg10, diff.changed, diff.n_trials) == (0.0, 0.0, 0, 5)
        assert diff.hr5_ci == (0.0, 0.0) and diff.ndcg10_ci == (0.0, 0.0)

    def test_four_trials_by_hand(self):
        # hits (1, 0, 1, 0) against (1, 1, 1, 1); trial 2 keeps its rank
        a, b = ranked_as([1, 6, 3, 12]), ranked_as([2, 4, 3, 1])
        diff = paired_difference(a, b, rng=np.random.default_rng(0))
        assert diff.hr5 == -0.5
        gains = [1 - 1 / math.log2(3), 1 / math.log2(7) - 1 / math.log2(5), 0.0, -1.0]
        assert diff.ndcg10 == pytest.approx(sum(gains) / 4, abs=1e-15)
        assert diff.changed == 3 and diff.n_trials == 4
        # a resample's mean lies between the smallest and largest difference
        assert -1.0 <= diff.hr5_ci[0] <= diff.hr5 <= diff.hr5_ci[1] <= 0.0
        assert -1.0 <= diff.ndcg10_ci[0] <= diff.ndcg10 <= diff.ndcg10_ci[1] <= gains[0]
        assert diff.hr5_ci[0] < diff.hr5_ci[1]

    def test_same_seed_same_interval(self):
        rng = np.random.default_rng(3)
        a, b = ranked_as(rng.integers(1, 30, 50)), ranked_as(rng.integers(1, 30, 50))
        first, second = (paired_difference(a, b, rng=np.random.default_rng(11)) for _ in range(2))
        assert first == second
        other = paired_difference(a, b, rng=np.random.default_rng(12))
        assert (other.hr5, other.ndcg10, other.changed) == (first.hr5, first.ndcg10, first.changed)
        assert (other.hr5_ci, other.ndcg10_ci) != (first.hr5_ci, first.ndcg10_ci)

    @pytest.mark.parametrize("change", ["length", "user", "positive", "candidates"])
    def test_other_trials_raise(self, change):
        a, b = ranked_as([1, 2, 3]), ranked_as([1, 2, 3])
        if change == "length":
            b = b[:2]
        elif change == "user":
            b[1].user = NodeRef(U, 9)
        elif change == "positive":
            b[1].positive = 1
        else:
            b[2].candidates = b[2].candidates[::-1]
        with pytest.raises(ValueError, match="same trials"):
            paired_difference(a, b, rng=np.random.default_rng(0))


# -- the vectorised ranks against bench/checks.brute_report --------------------

_spec = importlib.util.spec_from_file_location(
    "bench_checks", Path(__file__).resolve().parents[1] / "bench" / "checks.py"
)
bench_checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_checks)


class TestVectorisedRanks:
    @staticmethod
    def capped_trials():
        """Trials over 14 concepts whose users clicked 2 to 13 of them, so
        the never-clicked pools cap the 99 negatives at mixed lengths."""
        gen = np.random.default_rng(21)
        users = [NodeRef(U, i) for i in range(60)]
        clicked = {
            u: set(gen.choice(14, size=int(gen.integers(2, 14)), replace=False).tolist())
            for u in users
        }
        positives = [(u, int(gen.integers(14))) for u in users]
        trials = build_trials(positives, clicked, 14, 99, np.random.default_rng(3))
        assert len({t.candidates.size for t in trials}) >= 8
        return trials

    @pytest.mark.parametrize(
        "scorer",
        [
            lambda user, candidates: np.ones(candidates.size),
            PopularityScorer(np.random.default_rng(4).integers(0, 3, 14)),
            RandomScorer(7),
        ],
        ids=["constant", "tied popularity", "random"],
    )
    def test_match_brute_force(self, scorer):
        ranked = score_trials(scorer, self.capped_trials())
        ranks, values = bench_checks.brute_report(ranked)
        assert [t.rank for t in ranked] == ranks
        assert [
            rank_of_positive(t.candidates, t.scores, t.positive) for t in ranked
        ] == ranks
        report = aggregate(ranked)
        for name, got, want in zip(report._COLUMNS, report.values(), values):
            assert abs(got - want) <= 1e-12, name

    def test_random_scorer_called_once_per_trial_in_order(self):
        trials = self.capped_trials()
        calls = []
        random = RandomScorer(7)

        def recording(user, candidates):
            calls.append((user, candidates))
            return random(user, candidates)

        ranked = score_trials(recording, trials)
        assert [(u, id(c)) for u, c in calls] == [(t.user, id(t.candidates)) for t in trials]
        stream = np.random.default_rng(7)
        for t in ranked:
            assert np.array_equal(t.scores, stream.random(t.candidates.size))

    def test_nan_scores_raise_naming_the_first_user(self):
        # a NaN compares false, so it would rank above every negative:
        # 20 trials of NaN scores read HR@5 = NDCG = MRR = 1 and AUC 0
        users = [NodeRef(U, i) for i in range(20)]
        positives = [(u, i % 7) for i, u in enumerate(users)]
        trials = build_trials(positives, {}, 30, 9, np.random.default_rng(0))

        def nan_from(k):
            def scorer(user, candidates):
                scores = np.arange(candidates.size, dtype=float)
                if user.index >= k:
                    scores[user.index % candidates.size] = np.nan
                return scores
            return scorer

        with pytest.raises(ValueError, match=r"^NaN score in a trial of user:0$"):
            score_trials(lambda user, candidates: np.full(candidates.size, np.nan), trials)
        with pytest.raises(ValueError, match=r"^NaN score in a trial of user:13$"):
            score_trials(nan_from(13), trials)
        with pytest.raises(ValueError, match="user:19"):
            evaluate(nan_from(19), positives, {}, 30, n_negatives=9, seed=0)
        assert len(score_trials(nan_from(20), trials)) == 20

    def test_no_trials_score_to_none(self):
        assert score_trials(RandomScorer(0), []) == []
