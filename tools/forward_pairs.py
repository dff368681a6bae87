"""In-process A/B of two ``src`` trees on set-up and one user's forward paths.

    python3 tools/forward_pairs.py --parent DIR/src --change DIR/src
        [--pairs 20] [--users 50] [--world acceptance] [--seed 0]

Both trees' ``hincrec`` packages are imported into this one process,
under the names ``hincrec_parent`` and ``hincrec_change``, and each side
builds the same world (``bench/workloads.py``'s training world, with a
drawn score table so that logits do not tie) from the same seed. The
worlds are the acceptance world, and the benchmark's 4x ``reinforce``
and 10x ``serve`` worlds, generated in process. Every
pair times each measurement once per side, the parent first on even
pairs and the change first on odd ones:

- ``generate``: one ``generate_synthetic`` of the side's world; one run
  per figure;
- ``setup``: one ``temporal_split`` of the side's world at the 80th
  percentile of its click times, then ``holdout_targets(0.5)`` of the
  training split, as the world's set-up runs them; one run per figure;
- ``walks``: one user's ``PathCorpus.build`` on the training graph, as a
  ``recommend`` request walks;
- ``forward``: one user's forward-only ``user_embedding`` from a corpus
  that holds the user's bags and nothing derived from them, as a
  ``recommend`` request embeds after its walks;
- ``recommend``: one user's ``PathCorpus.build``, then
  ``PolicyScorer(...).logits`` of the user on that corpus: the walks and
  logits of one ``recommend`` request, which the ``serve`` workload's
  request latency times;
- ``rl_update``: ``train_rl`` in updates of 8 episodes, Adam included,
  timed per episode;
- ``pretrain_batch``: one ``pretrain`` episode of 8 users, Adam included;
- ``evaluate``: the ``hincrec eval`` protocol over the temporal split's
  test users, as ``bench/workloads.py`` runs it: the corpus build, the
  ``PolicyScorer``'s logits, ``build_trials`` with 99 negatives,
  ``score_trials`` and ``aggregate``; one run per figure.

Except for ``generate``, ``setup`` and ``evaluate``, a pair's figure is
the mean over ``--users`` users, ``pretrain`` batches or ``train_rl``
updates; ``rl_update``'s is per episode of those updates. The table
gives each side's median over the pairs in microseconds, the
change/parent ratio of the medians and the median of the pairs' ratios. BLAS runs on one
thread, as ``bench/run.py`` pins it, unless ``OPENBLAS_NUM_THREADS`` is
set.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

# Set before numpy loads BLAS, which reads it once. Unpinned, the batched
# embedding of `evaluate` ran slower and less steadily.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

SIDES = ("parent", "change")
WORLDS = {
    # the acceptance world of tests/test_acceptance.py
    "acceptance": dict(users=200, concepts=50, clusters=5, seed=7),
    # bench/workloads.py's 4x world
    "reinforce": dict(users=800, concepts=200, clusters=20, courses=40, videos=80, seed=7),
    # bench/workloads.py's 10x world, which the `serve` workload walks
    "serve": dict(users=2000, concepts=500, clusters=50, courses=100, videos=200, seed=7),
}
WALKS, WALK_LEN, BATCH, NEGATIVES = 10, 5, 8, 99
SUBMODULES = ("data", "embedding", "metapath", "metrics", "model", "synth", "training")


def load(src: Path, name: str):
    """The ``hincrec`` package under `src`, imported as `name`, with the
    submodules the measurements read loaded as its attributes. A package
    loaded before under `name` is dropped first, with its submodules."""
    for key in [key for key in sys.modules if key == name or key.startswith(f"{name}.")]:
        del sys.modules[key]
    pkg_dir = src / "hincrec"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    return module


class Side:
    """One package, its world and the measurements run on it."""

    def __init__(self, pkg, world: str, seed: int, n_users: int):
        self.pkg = pkg
        self.world = pkg.synth.SynthConfig(**WORLDS[world])
        self.ds = pkg.synth.generate_synthetic(self.world)
        stamps = sorted(c.ts for c in self.ds.clicks)
        self.cutoff = stamps[int(0.8 * len(stamps))]
        self.split = pkg.data.temporal_split(self.ds, self.cutoff)
        self.test_users = sorted({u for u, _ in self.split.test_positives}, key=lambda r: r.index)
        self.seed = seed
        hold = pkg.data.holdout_targets(self.split.train, 0.5)
        rng = np.random.default_rng(seed)
        mps = pkg.metapath.builtin_metapaths()
        self.env = pkg.training.make_training_env(
            hold.graph, hold.targets, mps, walks_per_path=WALKS, max_walk_len=WALK_LEN, rng=rng
        )
        self.model = pkg.model.init_model(hold.graph, mps, pkg.embedding.EmbedConfig(), rng=rng)
        scores = self.model.policy.tensors["policy.scores"]
        scores[...] = rng.normal(0.0, 1.0 / np.sqrt(scores.shape[1]), scores.shape)
        self.rng = rng
        self.walk_rng = np.random.default_rng([seed, 2])
        picks = np.random.default_rng([seed, 1]).choice(len(self.env.users), n_users, False)
        self.users = [self.env.users[int(i)] for i in picks]

    def _split(self):
        data = self.pkg.data
        return data.holdout_targets(data.temporal_split(self.ds, self.cutoff).train, 0.5)

    def generate(self) -> float:
        t0 = time.perf_counter()
        self.pkg.synth.generate_synthetic(self.world)
        return time.perf_counter() - t0

    def setup(self) -> float:
        t0 = time.perf_counter()
        self._split()
        return time.perf_counter() - t0

    def walks(self) -> float:
        pkg, env = self.pkg, self.env
        t0 = time.perf_counter()
        for user in self.users:
            pkg.metapath.PathCorpus.build(
                env.graph, [user], env.corpus.metapaths, n=WALKS, max_len=WALK_LEN,
                rng=self.walk_rng,
            )
        return (time.perf_counter() - t0) / len(self.users)

    def forward(self) -> float:
        pkg, env = self.pkg, self.env
        corpora = []
        for user in self.users:
            corpus = pkg.metapath.PathCorpus(env.corpus.metapaths)
            corpus.restore_user(user, env.corpus.snapshot_user(user))
            corpora.append(corpus)
        t0 = time.perf_counter()
        for user, corpus in zip(self.users, corpora):
            pkg.embedding.user_embedding(self.model.embed, env.graph, corpus, user)
        return (time.perf_counter() - t0) / len(self.users)

    def recommend(self) -> float:
        pkg, env = self.pkg, self.env
        t0 = time.perf_counter()
        for user in self.users:
            corpus = pkg.metapath.PathCorpus.build(
                env.graph, [user], env.corpus.metapaths, n=WALKS, max_len=WALK_LEN,
                rng=self.walk_rng,
            )
            pkg.metrics.PolicyScorer(self.model, env.graph, corpus).logits(user)
        return (time.perf_counter() - t0) / len(self.users)

    def rl_update(self) -> float:
        n = BATCH * len(self.users)
        t0 = time.perf_counter()
        self.pkg.training.train_rl(self.model, self.env, episodes=n, batch=BATCH, rng=self.rng)
        return (time.perf_counter() - t0) / n

    def pretrain_batch(self) -> float:
        n = len(self.users)
        t0 = time.perf_counter()
        self.pkg.training.pretrain(self.model, self.env, episodes=n, batch=BATCH, rng=self.rng)
        return (time.perf_counter() - t0) / n

    def evaluate(self) -> float:
        pkg, split = self.pkg, self.split
        graph = split.train.graph
        t0 = time.perf_counter()
        corpus = pkg.metapath.PathCorpus.build(
            graph, self.test_users, self.env.corpus.metapaths, n=WALKS, max_len=WALK_LEN,
            rng=np.random.default_rng(self.seed),
        )
        scorer = pkg.metrics.PolicyScorer(self.model, graph, corpus)
        trials = pkg.metrics.build_trials(
            split.test_positives, split.clicked_by_user(), self.env.n_concepts, NEGATIVES,
            np.random.default_rng(self.seed),
        )
        pkg.metrics.aggregate(pkg.metrics.score_trials(scorer, trials))
        return time.perf_counter() - t0


MEASUREMENTS = (
    "generate", "setup", "walks", "forward", "recommend", "rl_update", "pretrain_batch", "evaluate"
)


def run_pairs(sides: dict[str, Side], pairs: int) -> dict[str, dict[str, list[float]]]:
    """Seconds per call, by measurement and side, one entry per pair.
    Before the pairs, each side runs every measurement once untimed."""
    for side in sides.values():
        for name in MEASUREMENTS:
            getattr(side, name)()
    times = {name: {s: [] for s in SIDES} for name in MEASUREMENTS}
    for i in range(pairs):
        for s in SIDES if i % 2 == 0 else SIDES[::-1]:
            for name in MEASUREMENTS:
                times[name][s].append(getattr(sides[s], name)())
    return times


def table(times: dict[str, dict[str, list[float]]]) -> str:
    lines = [f"{'measurement':<16}{'parent us':>12}{'change us':>12}"
             f"{'ratio of medians':>18}{'median pair ratio':>19}"]
    for name, by_side in times.items():
        parent, change = (statistics.median(by_side[s]) for s in SIDES)
        pair_ratio = statistics.median(c / p for p, c in zip(by_side["parent"], by_side["change"]))
        lines.append(f"{name:<16}{1e6 * parent:>12.1f}{1e6 * change:>12.1f}"
                     f"{change / parent:>18.3f}{pair_ratio:>19.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", required=True, type=Path, help="the parent's src directory")
    ap.add_argument("--change", required=True, type=Path, help="the change's src directory")
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--users", type=int, default=50, help="users (or batches) per figure")
    ap.add_argument("--world", choices=sorted(WORLDS), default="acceptance")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.users < 1:
        ap.error("--pairs and --users must be at least 1")
    sides = {
        s: Side(load(src.resolve(), f"hincrec_{s}"), args.world, args.seed, args.users)
        for s, src in zip(SIDES, (args.parent, args.change))
    }
    print(f"world {args.world}, {args.pairs} pairs of {args.users} users each")
    print(table(run_pairs(sides, args.pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
