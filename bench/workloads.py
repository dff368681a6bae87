"""The three benchmark workloads: set-up, timed part and checks.

Every workload is a single-process closed loop on one thread. The world
(the synthetic graph) of a workload is fixed; ``--seed`` drives every
random choice made on it: walks, initial weights, mini-batches, episode
users, request order and evaluation negatives. Set-up is repeated and
``setup_s`` is the median. The timed part runs whole windows
(training) or whole rounds (serving) until ``seconds`` have passed, and
rates are medians over windows or rounds, so that a slow stretch of the
virtual CPU moves one window, not the run.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hincrec import data, metapath, metrics, model, synth, training
from hincrec.embedding import EmbedConfig
from hincrec.graph import NodeRef, NodeType, Relation

import checks
from spans import GRAPH_HOOKS, RUN_HOOKS, SETUP_HOOKS

# Set-up is repeated at least this often and for at least this long;
# setup_s is the median, so one slow stretch of the host moves one repeat.
SETUP_REPEATS, SETUP_SECONDS = 3, 2.0
WALKS, WALK_LEN = 10, 5          # N and l of the acceptance suite
TOPK = 20                        # `hincrec recommend --topk` default
NEGATIVES = 99                   # `hincrec eval --negatives` default
CHECKED_USERS = 8                # users per round whose logits meet the numpy oracle

WORLDS = {
    # The acceptance world of tests/test_acceptance.py.
    "pretrain": synth.SynthConfig(users=200, concepts=50, clusters=5, seed=7),
    # 4x: 58,824 parameters, K = 200 concepts in the policy softmax.
    "reinforce": synth.SynthConfig(
        users=800, concepts=200, clusters=20, courses=40, videos=80, seed=7
    ),
    # 10x: K = 500, read from TSV files as `hincrec eval` does.
    "serve": synth.SynthConfig(
        users=2000, concepts=500, clusters=50, courses=100, videos=200, seed=7
    ),
}

# Training steps per timed window: about half a second each today.
WINDOW = {"pretrain": 10, "reinforce": 50}
PRETRAIN_BATCH = 8


class Tracing:
    """Times the ops of a timed part; in a traced run, every other op
    (and every op passed ``always=True``) runs with the hooks installed.
    Untraced ops give the end-to-end figures; the two sets together give
    the tracing overhead."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.count = 0
        self.traced: list[float] = []     # seconds per alternating traced op
        self.untraced: list[float] = []   # seconds per untraced op
        self.traced_time = 0.0            # wall time under hooks, all ops
        if tracer is not None:
            tracer.first_timed = len(tracer.spans)

    def run(self, fn: Callable, always: bool = False):
        traced = self.tracer is not None and (always or self.count % 2 == 1)
        if not always:
            self.count += 1
        if traced:
            self.tracer.new_op()
            self.tracer.install(RUN_HOOKS + GRAPH_HOOKS)
        t0 = time.perf_counter()
        try:
            value = fn()
        finally:
            dt = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
                self.traced_time += dt
        if not always:
            (self.traced if traced else self.untraced).append(dt)
        return value, traced


@dataclass
class Result:
    setup_s: float
    throughput_per_s: float
    latency_p50_ms: float
    attempted: int
    named: dict          # the workload's own names for its figures
    tracing: Tracing


def _setup(build: Callable, tracer) -> tuple[float, object]:
    """Runs ``build`` repeatedly, or once under the hooks in a traced run."""
    if tracer is not None:
        tracer.install(SETUP_HOOKS + RUN_HOOKS)
        try:
            t0 = time.perf_counter()
            built = build()
            return time.perf_counter() - t0, built
        finally:
            tracer.uninstall()
    times = []
    built = None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        built = None  # free the previous world before building the next
        t0 = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), built


def _split(ds):
    """Train/test split at the 80th percentile of click times."""
    stamps = sorted(c.ts for c in ds.clicks)
    return data.temporal_split(ds, stamps[int(0.8 * len(stamps))])


def _training_world(name: str, seed: int):
    ds = synth.generate_synthetic(WORLDS[name])
    hold = data.holdout_targets(_split(ds).train, 0.5)
    rng = np.random.default_rng(seed)
    mps = metapath.builtin_metapaths()
    env = training.make_training_env(
        hold.graph, hold.targets, mps, walks_per_path=WALKS, max_walk_len=WALK_LEN, rng=rng
    )
    mdl = model.init_model(hold.graph, mps, EmbedConfig(), rng=rng)
    return env, mdl, rng


# -- pretrain -------------------------------------------------------------------


def run_pretrain(seed: int, seconds: float, tracer, scratch: Path) -> Result:
    setup_s, (env, mdl, rng) = _setup(lambda: _training_world("pretrain", seed), tracer)
    tracing = Tracing(tracer)
    window = WINDOW["pretrain"]
    losses: list[list[float]] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(losses) < 2:
        (_, trace), _ = tracing.run(
            lambda: training.pretrain(mdl, env, episodes=window, batch=PRETRAIN_BATCH, rng=rng)
        )
        losses.append(trace)
    users_per_s = statistics.median(window * PRETRAIN_BATCH / t for t in tracing.untraced)
    update_ms = statistics.median(1000 * t / window for t in tracing.untraced)

    checks.check_losses(losses, env.n_concepts)
    check_rng = np.random.default_rng([seed, 1])
    instances = [(u, c) for u in env.users for c in sorted(env.targets[u])]
    pairs = [instances[int(i)] for i in check_rng.integers(len(instances), size=PRETRAIN_BATCH)]
    grads = checks.tape_gradients(mdl, env, pairs)
    checks.check_directional_derivatives(mdl, env, pairs, grads, check_rng)
    checks.check_finite_params(mdl.tensors)
    return Result(
        setup_s, users_per_s, update_ms, attempted=len(losses) * window,
        named={
            "pretrain_users_per_s": (users_per_s, "1/s"),
            "pretrain_update_p50_ms": (update_ms, "ms"),
            "first_window_loss": (float(np.mean(losses[0])), "nats"),
            "last_window_loss": (float(np.mean(losses[-1])), "nats"),
        },
        tracing=tracing,
    )


# -- reinforce ------------------------------------------------------------------


def run_reinforce(seed: int, seconds: float, tracer, scratch: Path) -> Result:
    setup_s, (env, mdl, rng) = _setup(lambda: _training_world("reinforce", seed), tracer)
    tracing = Tracing(tracer)
    window = WINDOW["reinforce"]
    horizon = 20
    digest = env.graph.snapshot_digest()
    bags = checks.bag_snapshot(env.corpus, env.users)
    stats, untraced_stats = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or tracing.count < 2:
        (_, window_stats), traced = tracing.run(
            lambda: training.train_rl(mdl, env, episodes=window, horizon=horizon, rng=rng)
        )
        stats.extend(window_stats)
        if not traced:
            untraced_stats.extend(window_stats)
    episodes_per_s = statistics.median(window / t for t in tracing.untraced)
    episode_ms = 1000 * statistics.median(s.seconds for s in untraced_stats)

    checks.check_restored(
        digest, env.graph.snapshot_digest(), bags, checks.bag_snapshot(env.corpus, env.users)
    )
    checks.check_episode_stats(stats, horizon)
    checks.check_finite_params(mdl.tensors)
    return Result(
        setup_s, episodes_per_s, episode_ms, attempted=len(stats),
        named={
            "rl_episodes_per_s": (episodes_per_s, "1/s"),
            "rl_episode_p50_ms": (episode_ms, "ms"),
            "mean_episode_length": (float(np.mean([s.length for s in stats])), "count"),
        },
        tracing=tracing,
    )


# -- serve ----------------------------------------------------------------------


def _serve_world(seed: int, scratch: Path):
    ds = synth.generate_synthetic(WORLDS["serve"])
    data.save_dataset(ds, scratch)
    ds = data.load_dataset(scratch / "nodes.tsv", scratch / "edges.tsv")
    split = _split(ds)
    rng = np.random.default_rng(seed)
    mdl = model.init_model(split.train.graph, metapath.builtin_metapaths(), EmbedConfig(), rng=rng)
    # init_model zeroes the score table, which would make every logit tie.
    scores = mdl.policy.tensors["policy.scores"]
    scores[...] = rng.normal(0.0, 1.0 / np.sqrt(scores.shape[1]), scores.shape)
    return ds, split, mdl, rng


def _recommend(mdl, graph, user, rng):
    """One `hincrec recommend` request: fresh walks, logits, top-K unclicked."""
    corpus = metapath.PathCorpus.build(
        graph, [user], mdl.embed.metapaths, n=WALKS, max_len=WALK_LEN, rng=rng
    )
    logits = metrics.PolicyScorer(mdl, graph, corpus).logits(user)
    already = {ref.index for ref in graph.neighbors(user, Relation.CLICK)}
    order = sorted(
        (c for c in range(len(logits)) if c not in already), key=lambda c: (-logits[c], c)
    )
    return corpus, logits, order[:TOPK]


def _evaluate(mdl, split, n_concepts, seed):
    """The `hincrec eval` protocol, stage by stage."""
    graph = split.train.graph
    users = sorted({u for u, _ in split.test_positives}, key=lambda r: r.index)
    corpus = metapath.PathCorpus.build(
        graph, users, mdl.embed.metapaths, n=WALKS, max_len=WALK_LEN,
        rng=np.random.default_rng(seed),
    )
    scorer = metrics.PolicyScorer(mdl, graph, corpus)
    trials = metrics.build_trials(
        split.test_positives, split.clicked_by_user(), n_concepts, NEGATIVES,
        np.random.default_rng(seed),
    )
    ranked = metrics.score_trials(scorer, trials)
    return scorer, trials, ranked, metrics.aggregate(ranked)


def _check_round(mdl, split, served, evaluation, n_concepts, seed, rng) -> None:
    graph = split.train.graph
    for user, _, logits, top in served:
        clicked = {ref.index for ref in graph.neighbors(user, Relation.CLICK)}
        checks.check_topk(top, logits, clicked, TOPK)
    for i in rng.choice(len(served), CHECKED_USERS, replace=False):
        user, corpus, logits, _ = served[int(i)]
        checks.check_logits(mdl, corpus, user, logits)
    scorer, trials, ranked, report = evaluation
    clicked_by_user = split.clicked_by_user()
    checks.check_trials(trials, clicked_by_user, n_concepts, NEGATIVES)
    checks.check_report(ranked, report)
    test_users = sorted({t.user for t in trials})
    for i in rng.choice(len(test_users), CHECKED_USERS, replace=False):
        user = test_users[int(i)]
        checks.check_logits(mdl, scorer.corpus, user, scorer.logits(user))
    again = metrics.evaluate(
        scorer, split.test_positives, clicked_by_user, n_concepts, NEGATIVES, seed=seed
    )
    checks.require(again == report, "evaluate with the same seed gave another report")


def run_serve(seed: int, seconds: float, tracer, scratch: Path) -> Result:
    setup_s, (ds, split, mdl, rng) = _setup(lambda: _serve_world(seed, scratch), tracer)
    tracing = Tracing(tracer)
    graph = split.train.graph
    n_concepts = ds.concept_count()
    users = [NodeRef(NodeType.USER, i) for i in range(ds.user_count())]
    check_rng = np.random.default_rng([seed, 2])
    eval_times: list[float] = []
    timed = 0.0
    while timed < seconds:
        # A round's results are checked and dropped before the next round,
        # so memory does not grow with the number of rounds.
        served = []  # (user, corpus, logits, top-K) per request
        t0 = time.perf_counter()
        for i in rng.permutation(len(users)):
            user = users[int(i)]
            (corpus, logits, top), _ = tracing.run(lambda: _recommend(mdl, graph, user, rng))
            served.append((user, corpus, logits, top))
        t1 = time.perf_counter()
        evaluation, _ = tracing.run(lambda: _evaluate(mdl, split, n_concepts, seed), always=True)
        eval_times.append(time.perf_counter() - t1)
        timed += time.perf_counter() - t0
        _check_round(mdl, split, served, evaluation, n_concepts, seed, check_rng)
    n_trials = len(evaluation[1])
    trials_per_s = statistics.median(n_trials / t for t in eval_times)
    p50_ms = 1000 * statistics.median(tracing.untraced)
    return Result(
        setup_s, trials_per_s, p50_ms, attempted=len(eval_times) * (len(users) + 1),
        named={
            "serve_p50_ms": (p50_ms, "ms"),
            "serve_p99_ms": (1000 * statistics.quantiles(tracing.untraced, n=100)[98], "ms"),
            "serve_requests_timed": (len(tracing.untraced), "count"),
            "eval_trials_per_s": (trials_per_s, "1/s"),
            "eval_trials": (n_trials, "count"),
        },
        tracing=tracing,
    )


WORKLOADS = {"pretrain": run_pretrain, "reinforce": run_reinforce, "serve": run_serve}
