"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The learnability and ablation criteria train real models on the planted
synthetic dataset and take a few minutes combined.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import brute_metrics
from unfused import neighbor_refs, node_attention

from hincrec.autodiff import Tape, grad_check
from hincrec.cli import main as cli_main
from hincrec.data import holdout_targets, temporal_split
from hincrec.embedding import (
    EmbedConfig,
    build_user_embedding,
    user_embedding,
)
from hincrec.graph import HinGraph, NodeRef, NodeType, Relation
from hincrec.metapath import PathCorpus, builtin_metapaths, metapath_neighbors
from hincrec.metrics import (
    RandomScorer,
    PolicyScorer,
    RankedTrial,
    aggregate,
    auc,
    build_trials,
    evaluate,
    hit_ratio,
    mrr,
    ndcg,
    paired_difference,
    rank_of_positive,
    score_trials,
)
from hincrec.model import init_model
from hincrec.policy import ActionSet, build_action_distribution
from hincrec.synth import SynthConfig, generate_synthetic
from hincrec.training import (
    discounted_returns,
    make_training_env,
    play_episode,
    pretrain,
    rollback_episode,
    train_rl,
)

U, K = NodeType.USER, NodeType.CONCEPT


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    print(f"\n[PASS] criterion {number}: {description}")


# -- shared synthetic world and trained models --------------------------------

ACCEPT_SYNTH = SynthConfig(
    users=200, concepts=50, clusters=5, p_in=0.9, p_out=0.02,
    clicks_per_user=20, seed=7,
)
PRETRAIN_EPISODES = 2000
RL_EPISODES = 2000
EVAL_SEED = 123


def split_synthetic(cfg):
    ds = generate_synthetic(cfg)
    stamps = sorted(c.ts for c in ds.clicks)
    cutoff = stamps[int(0.8 * len(stamps))]
    return ds, temporal_split(ds, cutoff)


def report_for(model, split, ds, metapaths, seed=EVAL_SEED):
    """The `evaluate` report of `model` and the ranked trials behind it."""
    rng = np.random.default_rng(seed)
    test_users = sorted({u for u, _ in split.test_positives}, key=lambda r: r.index)
    corpus = PathCorpus.build(
        split.train.graph, test_users, metapaths, n=10, max_len=5, rng=rng
    )
    scorer = PolicyScorer(model, split.train.graph, corpus)
    trials = build_trials(
        split.test_positives,
        split.clicked_by_user(),
        ds.concept_count(),
        99,
        np.random.default_rng(seed),
    )
    ranked = score_trials(scorer, trials)
    return aggregate(ranked), ranked


def random_report(out):
    """The uniform scorer's report on a `train_pipeline` result's test set."""
    return evaluate(
        RandomScorer(EVAL_SEED),
        out["split"].test_positives,
        out["split"].clicked_by_user(),
        out["ds"].concept_count(),
        n_negatives=99,
        seed=EVAL_SEED,
    )


def paired(a, b):
    """`paired_difference` of two ranked trial lists at the evaluation seed."""
    return paired_difference(a, b, rng=np.random.default_rng(EVAL_SEED))


def train_pipeline(metapaths, seed=7):
    """gen -> split -> holdout -> pretrain -> reinforce, with timing."""
    t0 = time.perf_counter()
    ds, split = split_synthetic(ACCEPT_SYNTH)
    hold = holdout_targets(split.train, 0.5)
    rng = np.random.default_rng(seed)
    env = make_training_env(
        hold.graph, hold.targets, metapaths, walks_per_path=10, max_walk_len=5, rng=rng
    )
    model = init_model(hold.graph, metapaths, EmbedConfig(), rng=rng)
    model, losses = pretrain(model, env, episodes=PRETRAIN_EPISODES, rng=rng)
    pretrained = model.copy()
    model, stats = train_rl(model, env, episodes=RL_EPISODES, rng=rng)
    sl_report, sl_trials = report_for(pretrained, split, ds, metapaths)
    rl_report, rl_trials = report_for(model, split, ds, metapaths)
    elapsed = time.perf_counter() - t0
    return {
        "ds": ds,
        "split": split,
        "losses": losses,
        "stats": stats,
        "sl": sl_report,
        "rl": rl_report,
        "sl_trials": sl_trials,
        "rl_trials": rl_trials,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def trained_all_paths():
    return train_pipeline(builtin_metapaths())


# -- criterion 1: gradient fidelity -------------------------------------------


def test_criterion_1_gradient_fidelity():
    with criterion(1, "full-pipeline gradient check < 1e-4 in under 60 s"):
        cfg = SynthConfig(
            users=12, concepts=8, clusters=2, courses=4, videos=6,
            p_in=0.9, p_out=0.05, clicks_per_user=6, seed=5,
        )
        ds = generate_synthetic(cfg)
        assert ds.graph.total_nodes() <= 50
        hold = holdout_targets(ds, 0.5)
        rng = np.random.default_rng(1)
        mps = builtin_metapaths()
        env = make_training_env(
            hold.graph, hold.targets, mps, walks_per_path=4, max_walk_len=5, rng=rng
        )
        model = init_model(
            hold.graph, mps, EmbedConfig(dim=8, heads=2, feat_dim=4, path_hidden=8),
            rng=rng,
        )
        user = env.users[0]

        # freeze one trajectory (actions + rewards) by playing it once
        probe = play_episode(model, env, user, horizon=4, epsilon=0.5, gamma=0.9,
                             rng=np.random.default_rng(3))
        actions = [(s.action, s.reward) for s in probe.steps]
        rollback_episode(env, probe)
        assert actions, "probe episode must have steps"
        lam, gamma = 0.08, 0.9
        returns = discounted_returns([r for _, r in actions], gamma)

        def replay(tape, leaves):
            # deterministic replay: frozen actions, frozen walk seeds, the
            # same embed -> score -> shrink -> mutate -> re-embed loop
            walk_rng = np.random.default_rng(99)
            saved = env.corpus.snapshot_user(user)
            added = []
            u_var, _ = build_user_embedding(
                tape, leaves, model.embed, env.corpus, user
            )
            avail = ActionSet.full(env.n_concepts)
            pg = None
            negent = None
            for (action, reward), ret in zip(actions, returns):
                dist = build_action_distribution(tape, leaves, model.policy, u_var, avail)
                logp = tape.log(tape.gather_row(dist, action))
                term = tape.scale(logp, ret)
                pg = term if pg is None else tape.vecadd(pg, term)
                ent = tape.vsum(tape.plogp(dist))
                negent = ent if negent is None else tape.vecadd(negent, ent)
                avail = avail.shrink(action)
                if reward > 0:
                    concept = NodeRef(K, action)
                    if env.graph.add_edge(user, concept, Relation.CLICK):
                        added.append(concept)
                    env.corpus.resample_user(env.graph, user, n=4, max_len=5, rng=walk_rng)
                    u_var, _ = build_user_embedding(
                        tape, leaves, model.embed, env.corpus, user
                    )
            for concept in added:
                env.graph.remove_edge(user, concept, Relation.CLICK)
            env.corpus.restore_user(user, saved)
            return tape.vecadd(pg, tape.scale(negent, -lam))

        t0 = time.perf_counter()
        err = grad_check(replay, model.tensors, eps=1e-5)
        elapsed = time.perf_counter() - t0
        print(f"\n  max relative error {err:.3e} over "
              f"{sum(a.size for a in model.tensors.values())} parameters "
              f"({elapsed:.1f} s)")
        assert err < 1e-4
        assert elapsed < 60.0


# -- criterion 2: normalization suite ------------------------------------------


def test_criterion_2_normalization():
    with criterion(2, "1000 random parameterizations keep attention sums at 1"):
        cfg = SynthConfig(
            users=10, concepts=8, clusters=2, courses=4, videos=4,
            p_in=0.8, p_out=0.1, clicks_per_user=5, seed=2,
        )
        ds = generate_synthetic(cfg)
        mps = builtin_metapaths()
        corpus = PathCorpus.build(
            ds.graph, [NodeRef(U, i) for i in range(10)], mps, n=4,
            rng=np.random.default_rng(0),
        )
        failures = 0
        draw_rng = np.random.default_rng(1234)
        from hincrec.embedding import EmbedParams

        for trial in range(1000):
            params = EmbedParams(
                EmbedConfig(dim=8, heads=2, feat_dim=4, path_hidden=6),
                ds.graph.node_counts, mps,
                np.random.default_rng(trial),
            )
            # random scale-up so logits are not always near zero
            for key in params.tensors:
                params.tensors[key] *= float(1.0 + 4.0 * draw_rng.random())
            user = NodeRef(U, int(draw_rng.integers(10)))
            for mp in mps:
                nbrs = neighbor_refs(corpus, user, mp)
                for head in range(params.cfg.heads):
                    alpha = node_attention(params, user, nbrs, mp, head)
                    if abs(alpha.sum() - 1.0) > 1e-9 or np.any(alpha < 0):
                        failures += 1
            emb = user_embedding(params, ds.graph, corpus, user)
            if abs(emb.beta.sum() - 1.0) > 1e-9 or np.any(emb.beta < 0):
                failures += 1
        assert failures == 0


# -- criterion 3: metric oracle equivalence ------------------------------------


def test_criterion_3_metric_oracle():
    with criterion(3, "metrics match the brute-force reference to 1e-12"):
        rng = np.random.default_rng(99)
        raw, ranked = [], []
        for i in range(100):
            m = int(rng.integers(20, 101))
            candidates = rng.choice(500, size=m, replace=False)
            scores = np.round(rng.random(m), 2)
            positive = int(candidates[rng.integers(m)])
            raw.append((candidates, scores, positive))
            ranked.append(
                RankedTrial(
                    user=NodeRef(U, i), positive=positive, candidates=candidates,
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

        # closed-form spot values
        def with_rank(r):
            cands = np.arange(100)
            scores = np.linspace(1.0, 0.0, 100)
            return RankedTrial(NodeRef(U, 0), r - 1, cands, scores,
                               rank_of_positive(cands, scores, r - 1))

        assert ndcg([with_rank(3)], 10) == pytest.approx(0.5, abs=1e-12)
        assert mrr([with_rank(r) for r in (1, 2, 4)]) == pytest.approx(
            0.5833333333333334, abs=1e-12
        )


# -- criterion 4: random-baseline calibration ----------------------------------


def test_criterion_4_random_calibration():
    with criterion(4, "uniform scorer: HR@5 = 0.05 +/- 0.015, AUC = 0.5 +/- 0.02"):
        n_trials = 2500
        users = [NodeRef(U, i) for i in range(n_trials)]
        positives = [(u, i % 150) for i, u in enumerate(users)]
        clicked = {u: {p} for (u, p) in positives}
        trials = build_trials(
            positives, clicked, 250, 99, np.random.default_rng(11)
        )
        assert len(trials) >= 2000
        assert all(t.candidates.size == 100 for t in trials)
        report = aggregate(score_trials(RandomScorer(7), trials))
        print(f"\n  HR@5 {report.hr5:.4f}  AUC {report.auc:.4f} over {report.n_trials} trials")
        assert abs(report.hr5 - 0.05) <= 0.015
        assert abs(report.auc - 0.5) <= 0.02


# -- criterion 5: MDP contract suite -------------------------------------------


def line_world():
    """U0 isolated at first; U1 clicked K0/K1, so a click U0-K0 opens MP1."""
    g = HinGraph()
    users = g.add_nodes(U, 2)
    concepts = g.add_nodes(K, 4)
    g.add_edge(users[1], concepts[0], Relation.CLICK)
    g.add_edge(users[1], concepts[1], Relation.CLICK)
    return g, users, concepts


def test_criterion_5_mdp_contracts():
    with criterion(5, "episode, reward, and return contracts all hold"):
        mps = builtin_metapaths()

        # ---- repeat-free actions + termination rule over many episodes
        cfg = SynthConfig(
            users=20, concepts=10, clusters=2, courses=4, videos=8,
            p_in=0.9, p_out=0.05, clicks_per_user=8, seed=0,
        )
        ds = generate_synthetic(cfg)
        hold = holdout_targets(ds, 0.5)
        rng = np.random.default_rng(0)
        env = make_training_env(hold.graph, hold.targets, mps, walks_per_path=5, rng=rng)
        model = init_model(
            hold.graph, mps, EmbedConfig(dim=8, heads=2, feat_dim=8, path_hidden=16),
            rng=rng,
        )
        horizon = 6
        for _ in range(40):
            user = env.users[int(rng.integers(len(env.users)))]
            ep = play_episode(model, env, user, horizon, epsilon=0.5, gamma=0.9, rng=rng)
            actions = [s.action for s in ep.steps]
            rewards = [s.reward for s in ep.steps]
            assert len(set(actions)) == len(actions)
            assert len(rewards) <= horizon
            if len(rewards) < horizon:
                assert rewards[-1] == -1.0
            assert all(r == 1.0 for r in rewards[:-1])
            assert ep.embed_count == 1 + sum(1 for r in rewards if r > 0)
            rollback_episode(env, ep)

        # ---- correct step: one new click edge + embedding change on a
        # sampler-reachable toy graph
        g, users, concepts = line_world()
        targets = {users[0]: frozenset([0])}
        env2 = make_training_env(
            g, targets, mps, walks_per_path=5, rng=np.random.default_rng(1)
        )
        params = init_model(
            g, mps, EmbedConfig(dim=8, heads=2, feat_dim=4, path_hidden=8),
            rng=np.random.default_rng(2),
        )
        before_edges = g.edge_count()
        before_emb = user_embedding(
            params.embed, g, env2.corpus, users[0]
        )
        from hincrec.training import step

        reward, mutated = step(g, targets, users[0], 0)
        assert (reward, mutated) == (1.0, True)
        assert g.edge_count() == before_edges + 1
        env2.corpus.resample_user(g, users[0], n=5, rng=np.random.default_rng(6))
        after_emb = user_embedding(
            params.embed, g, env2.corpus, users[0]
        )
        assert np.linalg.norm(after_emb.vector - before_emb.vector) > 0

        # ---- incorrect step leaves the digest bit-identical
        digest = g.snapshot_digest()
        reward, mutated = step(g, targets, users[0], 3)
        assert (reward, mutated) == (-1.0, False)
        assert g.snapshot_digest() == digest

        # ---- return recursion holds exactly
        rec_rng = np.random.default_rng(3)
        for _ in range(50):
            rewards = list(rec_rng.choice([-1.0, 1.0], size=rec_rng.integers(1, 15)))
            gamma = float(rec_rng.random())
            rets = discounted_returns(rewards, gamma)
            for t in range(len(rewards) - 1):
                assert rets[t] == rewards[t] + gamma * rets[t + 1]
            assert rets[-1] == rewards[-1]


# -- criterion 6: learnability on planted clusters -------------------------------


def test_criterion_6_learnability(trained_all_paths):
    with criterion(6, "trained model beats the random baseline 3x (HR@5 >= 0.15)"):
        out = trained_all_paths
        random_hr5 = random_report(out).hr5
        hr5_rl = out["rl"].hr5
        hr5_sl = out["sl"].hr5
        print(
            f"\n  HR@5: reinforced {hr5_rl:.4f}  pretrained {hr5_sl:.4f}  "
            f"random {random_hr5:.4f}  (pipeline {out['elapsed']:.0f} s)"
        )
        print(f"  reinforced - pretrained: {paired(out['rl_trials'], out['sl_trials']).pretty()}")
        assert hr5_rl >= 0.15
        assert hr5_rl >= 3.0 * random_hr5
        assert hr5_rl >= hr5_sl - 0.01
        assert out["elapsed"] < 900.0


# -- criterion 7: meta-path ablation direction -----------------------------------


def test_criterion_7_metapath_ablation(trained_all_paths):
    with criterion(7, "all four meta-paths match or beat each single path"):
        hr5_all = trained_all_paths["rl"].hr5
        singles, single_trials = {}, {}
        for mp in builtin_metapaths():
            result = train_pipeline([mp])
            singles[mp.id] = result["rl"].hr5
            single_trials[mp.id] = result["rl_trials"]
        best = max(singles, key=singles.get)
        diff = paired(trained_all_paths["rl_trials"], single_trials[best])
        print(f"\n  HR@5 all-paths {hr5_all:.4f}  singles {singles}")
        print(f"  all paths - MP{best}: {diff.pretty()}")
        for mp_id, hr5 in singles.items():
            assert hr5_all >= hr5 - 0.02, f"MP{mp_id} beats the combination"


# -- criterion 8: near-linear scaling ---------------------------------------------


def test_criterion_8_scaling():
    with criterion(8, "doubling node count raises per-episode time <= 2.5x"):
        def mean_episode_seconds(cfg):
            ds, split = split_synthetic(cfg)
            hold = holdout_targets(split.train, 0.5)
            rng = np.random.default_rng(7)
            env = make_training_env(
                hold.graph, hold.targets, builtin_metapaths(),
                walks_per_path=10, max_walk_len=5, rng=rng,
            )
            model = init_model(hold.graph, builtin_metapaths(), EmbedConfig(), rng=rng)
            _, stats = train_rl(model, env, episodes=200, rng=rng)
            return float(np.mean([s.seconds for s in stats]))

        base = mean_episode_seconds(ACCEPT_SYNTH)
        doubled_cfg = SynthConfig(
            users=400, concepts=100, clusters=10, courses=20, videos=40,
            p_in=0.9, p_out=0.02, clicks_per_user=20, seed=7,
        )
        doubled = mean_episode_seconds(doubled_cfg)
        ratio = doubled / base
        print(f"\n  per-episode: base {base*1000:.2f} ms, doubled {doubled*1000:.2f} ms, "
              f"ratio {ratio:.2f}")
        assert ratio <= 2.5


# -- criterion 9: end-to-end determinism ------------------------------------------


def test_criterion_9_determinism(tmp_path, capsys):
    with criterion(9, "gen -> train -> eval is byte-identical across reruns"):
        synth_cfg = (
            "users = 40\nconcepts = 16\nclusters = 2\ncourses = 4\nvideos = 8\n"
            "p_in = 0.9\np_out = 0.05\nclicks = 10\nseed = 13\n"
        )
        run_cfg = (
            "seed = 21\nd = 8\nL = 2\nN = 4\nl = 5\nE = 25\nT = 5\n"
            "pretrain_episodes = 25\nbatch = 4\n"
        )
        cutoff = str(1_660_000_000)
        artifacts = []
        for run in ("one", "two"):
            root = tmp_path / run
            root.mkdir()
            (root / "synth.cfg").write_text(synth_cfg, encoding="utf-8")
            (root / "run.cfg").write_text(run_cfg, encoding="utf-8")
            data = root / "data"
            assert cli_main(["gen", "--config", str(root / "synth.cfg"),
                             "--out", str(data)]) == 0
            ckpt = root / "model.bin"
            assert cli_main(["train", "--config", str(root / "run.cfg"),
                             "--data", str(data), "--ckpt", str(ckpt),
                             "--cutoff", cutoff]) == 0
            assert cli_main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                             "--cutoff", cutoff, "--seed", "21"]) == 0
            report = capsys.readouterr().out.strip().splitlines()[-1]
            artifacts.append(
                (
                    (data / "nodes.tsv").read_bytes(),
                    (data / "edges.tsv").read_bytes(),
                    ckpt.read_bytes(),
                    report,
                )
            )
        assert artifacts[0][0] == artifacts[1][0], "nodes.tsv differs"
        assert artifacts[0][1] == artifacts[1][1], "edges.tsv differs"
        assert artifacts[0][2] == artifacts[1][2], "checkpoint differs"
        assert artifacts[0][3] == artifacts[1][3], "evaluation report differs"
        print(f"\n  report: {artifacts[0][3]}")
