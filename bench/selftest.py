"""Each benchmark check passes on the program's output and fails once that
output is corrupted. Run with ``python3 -m pytest -q bench/selftest.py``;
the file name keeps it out of the repository's own test collection.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
from hincrec import data, metapath, metrics, model, synth, training  # noqa: E402
from hincrec.embedding import EmbedConfig  # noqa: E402
from hincrec.graph import NodeRef, NodeType, Relation  # noqa: E402

SMALL = synth.SynthConfig(users=30, concepts=12, clusters=2, courses=4, videos=8, seed=3)


@pytest.fixture(scope="module")
def world():
    ds = synth.generate_synthetic(SMALL)
    stamps = sorted(c.ts for c in ds.clicks)
    split = data.temporal_split(ds, stamps[int(0.8 * len(stamps))])
    hold = data.holdout_targets(split.train, 0.5)
    rng = np.random.default_rng(5)
    mps = metapath.builtin_metapaths()
    env = training.make_training_env(hold.graph, hold.targets, mps, 4, 5, rng=rng)
    mdl = model.init_model(hold.graph, mps, EmbedConfig(dim=8, heads=2), rng=rng)
    scores = mdl.policy.tensors["policy.scores"]
    scores[...] = rng.normal(0.0, 0.5, scores.shape)
    return split, env, mdl


def test_logit_check_catches_one_perturbed_logit(world):
    _, env, mdl = world
    user = env.users[0]
    logits = metrics.PolicyScorer(mdl, env.graph, env.corpus).logits(user).copy()
    checks.check_logits(mdl, env.corpus, user, logits)
    logits[3] += 1e-7
    with pytest.raises(checks.CheckFailed):
        checks.check_logits(mdl, env.corpus, user, logits)


def test_gradient_check_catches_one_perturbed_entry(world):
    _, env, mdl = world
    pairs = [(u, min(env.targets[u])) for u in env.users[:4]]
    grads = checks.tape_gradients(mdl, env, pairs)
    checks.check_directional_derivatives(mdl, env, pairs, grads, np.random.default_rng(0))
    grads["path.W"][1, 2] += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_directional_derivatives(mdl, env, pairs, grads, np.random.default_rng(0))


def test_rollback_check_catches_an_edge_left_behind(world):
    _, env, mdl = world
    digest = env.graph.snapshot_digest()
    bags = checks.bag_snapshot(env.corpus, env.users)
    rng = np.random.default_rng(1)
    user = env.users[0]
    episode = training.play_episode(mdl, env, user, 5, 0.0, 0.9, rng)
    training.rollback_episode(env, episode)
    checks.check_restored(digest, env.graph.snapshot_digest(), bags,
                          checks.bag_snapshot(env.corpus, env.users))
    concept = NodeRef(NodeType.CONCEPT, min(env.targets[user]))
    assert env.graph.add_edge(user, concept, Relation.CLICK)
    try:
        with pytest.raises(checks.CheckFailed):
            checks.check_restored(digest, env.graph.snapshot_digest(), bags,
                                  checks.bag_snapshot(env.corpus, env.users))
    finally:
        env.graph.remove_edge(user, concept, Relation.CLICK)


def test_episode_stats_check_catches_a_missing_embedding():
    good = training.EpisodeStats(total_reward=1.0, length=3, embed_count=3, objective=0.0)
    checks.check_episode_stats([good], horizon=20)
    bad = training.EpisodeStats(total_reward=1.0, length=3, embed_count=2, objective=0.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_episode_stats([bad], horizon=20)


def test_loss_check_needs_a_falling_loss_below_uniform():
    k = 12
    checks.check_losses([[math.log(k)] * 3, [2.0, 2.1]], k)
    with pytest.raises(checks.CheckFailed):
        checks.check_losses([[2.0], [2.1]], k)
    with pytest.raises(checks.CheckFailed):
        checks.check_losses([[math.log(k) + 1], [math.log(k) + 0.5]], k)
    with pytest.raises(checks.CheckFailed):
        checks.check_losses([[3.0], [float("nan")]], k)


def test_topk_check_catches_a_clicked_or_misordered_concept():
    logits = np.array([0.5, 2.0, 1.0, 1.0, -1.0])
    checks.check_topk([2, 3, 0], logits, {1}, 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_topk([1, 2, 3], logits, {1}, 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_topk([3, 2, 0], logits, {1}, 3)


def test_trial_and_report_checks_catch_corruption(world):
    split, env, mdl = world
    n = split.train.concept_count()
    clicked = split.clicked_by_user()
    trials = metrics.build_trials(split.test_positives, clicked, n, 5, np.random.default_rng(2))
    checks.check_trials(trials, clicked, n, 5)
    users = sorted({t.user for t in trials})
    corpus = metapath.PathCorpus.build(split.train.graph, users, mdl.embed.metapaths, n=4,
                                       rng=np.random.default_rng(2))
    ranked = metrics.score_trials(metrics.PolicyScorer(mdl, split.train.graph, corpus), trials)
    report = metrics.aggregate(ranked)
    checks.check_report(ranked, report)

    bad = trials[0]
    dup = metrics.TrialSpec(bad.user, bad.positive, np.append(bad.candidates, bad.candidates[1]))
    with pytest.raises(checks.CheckFailed):
        checks.check_trials([dup], clicked, n, 5)
    ranked[0].rank += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_report(ranked, report)
