"""HR@5 of the acceptance pipeline at several seeds, with paired intervals.

    python3 tools/pipeline_table.py [--seeds 7 1 2]

For each seed, ``train_pipeline`` of ``tests/test_acceptance.py`` (the one
definition of the pipeline) trains the all-paths model and each
single-meta-path model, and the uniform scorer is scored on the same
trials. One markdown row per seed gives HR@5, with the hits out of the
trials in parentheses, of the reinforced, pretrained and random models
and of the reinforced MP1-MP4 models. Two paired comparisons follow
(``metrics.paired_difference``): reinforced against pretrained, and all
paths against the best single path; each gives the mean HR@5 and NDCG@10
differences with their 95% bootstrap intervals and the number of trials
whose rank changed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance as acceptance  # noqa: E402
from hincrec.metapath import builtin_metapaths  # noqa: E402


def _hr5(report) -> str:
    return f"{report.hr5:.4f} ({round(report.hr5 * report.n_trials)})"


def row(seed: int) -> str:
    """The table row of one pipeline seed."""
    out = acceptance.train_pipeline(builtin_metapaths(), seed=seed)
    singles = {mp.id: acceptance.train_pipeline([mp], seed=seed) for mp in builtin_metapaths()}
    best = max(singles, key=lambda mp_id: singles[mp_id]["rl"].hr5)
    cells = [
        str(seed),
        _hr5(out["rl"]),
        _hr5(out["sl"]),
        _hr5(acceptance.random_report(out)),
        *(_hr5(single["rl"]) for single in singles.values()),
        acceptance.paired(out["rl_trials"], out["sl_trials"]).pretty(),
        f"MP{best}: " + acceptance.paired(out["rl_trials"], singles[best]["rl_trials"]).pretty(),
    ]
    return "| " + " | ".join(cells) + " |"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 1, 2])
    args = ap.parse_args(argv)
    mps = [f"MP{mp.id}" for mp in builtin_metapaths()]
    head = ["seed", "reinforced", "pretrained", "random", *mps,
            "reinforced - pretrained", "all paths - best single"]
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for seed in args.seeds:
        print(row(seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
