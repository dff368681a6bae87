"""Alternating parent/change benchmark pairs, summarized into BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pr N --seed S

DIR is the root of a checkout (each holds ``bench/`` and ``src/``). For
every workload of the change's ``BENCHMARK.json`` and each of the ten
pairs i, both checkouts run ``bench/run.py --trace 0`` at seed S + i for
the ``run_seconds`` of that file, the parent first on even pairs and the
change first on odd ones. After the pairs, each side makes one
``--trace 1`` run per workload at seed S for the per-layer figures. Any run that exits nonzero or is not correct with no failures
stops the tool with exit status 1. The summary goes to
``<change>/BENCH_<N>.json`` and a table to standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
PAIRS = 10


class RunFailed(Exception):
    pass


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py process in checkout `root`; its metrics by name."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    where = f"{root}: {' '.join(cmd[1:])}"
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{where} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        raise RunFailed(f"{where} reported {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric, compare the two sides.

    `runs[workload][side]` lists one metrics dict per pair, pair i of the
    parent against pair i of the change; `metrics` are the ``end_to_end``
    entries of BENCHMARK.json. A pair is won when the change reads
    strictly better; ties count for neither side. `gain` holds when the
    change won at least nine tenths of the pairs and its median beats the
    parent's by more than the parent's quartile spread. `worse_share` is
    the move of the change's median against the parent's, positive when
    worse; `regressed` holds when it exceeds the metric's `bound`, and
    `unresolved` when the parent's quartile spread alone exceeds the
    bound, so that a regression of that size could not be told apart.
    """
    out = {}
    for workload, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        if len(parent) != len(change):
            raise ValueError(f"{workload}: {len(parent)} parent runs, {len(change)} change runs")
        rows = {}
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            p = [run[name] for run in parent]
            c = [run[name] for run in change]
            ps, cs = quartiles(p), quartiles(c)
            spread = ps["q3"] - ps["q1"]
            won = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
            ahead = cs["median"] - ps["median"] if higher else ps["median"] - cs["median"]
            share = spread / ps["median"] if ps["median"] else 0.0
            worse = -ahead / ps["median"] if ps["median"] else 0.0
            rows[name] = {
                "better": metric["better"],
                "parent": ps,
                "change": cs,
                "parent_spread_share": share,
                "pairs": len(p),
                "pairs_won": won,
                "gain": won >= 0.9 * len(p) and ahead > spread,
                "bound": metric["bound"],
                "worse_share": worse,
                "regressed": worse > metric["bound"],
                "unresolved": share > metric["bound"],
                "runs": {"parent": p, "change": c},
            }
        out[workload] = rows
    return out


def bench_digest(root: Path) -> str:
    """SHA-256 over BENCHMARK.json and bench/*.py of a checkout."""
    h = hashlib.sha256()
    for path in [root / "BENCHMARK.json", *sorted((root / "bench").glob("*.py"))]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def print_table(summary: dict) -> None:
    for workload, rows in summary.items():
        for name, r in rows.items():
            print(f"{workload:9s} {name:18s} {r['parent']['median']:12.4f} "
                  f"({100 * r['parent_spread_share']:4.1f}%) -> {r['change']['median']:12.4f}  "
                  f"won {r['pairs_won']}/{r['pairs']}{'  gain' if r['gain'] else ''}"
                  f"{'  REGRESSED' if r['regressed'] else ''}"
                  f"{'  unresolved' if r['unresolved'] else ''}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = [args.seed + i for i in range(PAIRS)]
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    traced = {w: {} for w in workloads}
    try:
        for w in workloads:
            for i, seed in enumerate(seeds):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    runs[w][side].append(run_bench(roots[side], w, seed, seconds, 0))
                print(f"{w} pair {i + 1}/{PAIRS} done", file=sys.stderr, flush=True)
            for side in SIDES:
                traced[w][side] = run_bench(roots[side], w, args.seed, seconds, 1)
    except RunFailed as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    summary = summarize(runs, spec["end_to_end"])
    record = {
        "pr": args.pr,
        "seeds": seeds,
        "seconds": seconds,
        "order": "parent first on even pairs, change first on odd pairs",
        "machine": machine(),
        "bench_digest": {side: bench_digest(roots[side]) for side in SIDES},
        "end_to_end": summary,
        "traced": {"seed": args.seed, "metrics": traced},
    }
    out = roots["change"] / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print_table(summary)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
