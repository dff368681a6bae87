"""One SHA-256 line over what training leaves behind, to compare two trees.

    python3 tools/train_digest.py [--pretrain 40] [--episodes 400]

Four runs, each on a fresh world: the acceptance world of
``tests/test_acceptance.py`` and the benchmark's 4x world with a drawn
score table (``tests/test_training.py``'s ``reinforce_world``), each with
``train_rl`` in updates of 8 episodes and of 1. A run is ``--pretrain``
``pretrain`` episodes, then ``--episodes`` ``train_rl`` episodes. The
digest covers, per run and in order: every tensor's name and bytes,
Adam's first and second moments after the last call, the pretrain
losses, every ``EpisodeStats`` field except ``seconds``, the graph
digest after the run and the generator's next draw. The line also
gives each run's number of steps after the first, so that a reader sees
that later, re-embedded steps were covered.

Run it in two checkouts (copy the script into one that lacks it): equal
lines mean the two trees train bit for bit alike on these runs.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import test_acceptance as acceptance  # noqa: E402
import test_training  # noqa: E402
from hincrec.data import holdout_targets  # noqa: E402
from hincrec.embedding import EmbedConfig  # noqa: E402
from hincrec.metapath import builtin_metapaths  # noqa: E402
from hincrec.model import init_model  # noqa: E402
from hincrec.training import make_training_env, pretrain, train_rl  # noqa: E402

SEED = 5


def acceptance_world(seed: int = SEED):
    """The acceptance pipeline's env, model and generator before training."""
    _, split = acceptance.split_synthetic(acceptance.ACCEPT_SYNTH)
    hold = holdout_targets(split.train, 0.5)
    rng = np.random.default_rng(seed)
    mps = builtin_metapaths()
    env = make_training_env(hold.graph, hold.targets, mps, walks_per_path=10, max_walk_len=5, rng=rng)
    return env, init_model(hold.graph, mps, EmbedConfig(), rng=rng), rng


WORLDS = {"acceptance": acceptance_world, "reinforce": test_training.reinforce_world}


def run(world: str, batch: int, n_pretrain: int, n_rl: int, h) -> int:
    """Trains one fresh world into the hash `h`; returns the steps after
    the first that its episodes took."""
    env, model, rng = WORLDS[world](SEED)
    model, losses = pretrain(model, env, episodes=n_pretrain, rng=rng)
    model, stats = train_rl(model, env, episodes=n_rl, batch=batch, rng=rng)
    h.update(f"{world}/{batch}\n".encode())
    for name, arr in model.tensors.items():
        h.update(name.encode())
        h.update(arr.tobytes())
    for moment in model.moments[:2]:
        h.update(moment.tobytes())
    h.update(np.asarray(losses, dtype=np.float64).tobytes())
    for s in stats:
        h.update(repr((s.total_reward, s.length, s.embed_count, s.objective)).encode())
    h.update(repr(env.graph.snapshot_digest()).encode())
    h.update(np.float64(rng.random()).tobytes())
    return sum(s.length - 1 for s in stats)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--pretrain", type=int, default=40)
    ap.add_argument("--episodes", type=int, default=400)
    args = ap.parse_args(argv)
    h = hashlib.sha256()
    later = [
        f"{world}/{batch} {run(world, batch, args.pretrain, args.episodes, h)}"
        for world in WORLDS
        for batch in (8, 1)
    ]
    print(f"{h.hexdigest()} later steps: {', '.join(later)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
