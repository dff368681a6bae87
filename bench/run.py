"""Benchmark entry point.

    python3 bench/run.py --workload {pretrain,reinforce,serve,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: it imports hincrec from ``src/`` of the
same checkout and nothing else. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, and the spans are written
to ``.bench_out/``. ``--workload all`` runs the three workloads one after
another, each in its own process. The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("pretrain", "reinforce", "serve")


def _parse(argv):
    p = argparse.ArgumentParser(description="hincrec benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    src = ROOT / "src"
    if not (src / "hincrec" / "__init__.py").is_file():
        sys.exit(f"bench: no hincrec sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    # Every workload is single-threaded; pin BLAS so that no helper thread
    # competes with it for one of the few cores.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import hincrec
    if Path(hincrec.__file__).resolve().parent != (src / "hincrec").resolve():
        sys.exit(f"bench: imported hincrec from {hincrec.__file__}, not from {src}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer, tracing) -> dict:
    """Per-layer figures of a traced run (name -> (value, unit)).

    Set-up spans count toward the walk-sampling and set-up stage figures;
    everything else comes from the traced ops of the timed part. A layer
    that does no work in a workload reads 0.
    """
    from spans import LAYERS, layer_of

    calls, total, _ = tracer.totals()
    n, t, self_t = tracer.totals(tracer.first_timed)
    c = tracer.counts
    embedded = n["embedding.build_user_embedding"] + n["embedding.user_embedding"]
    writes = n["graph.add_edge"] + n["graph.remove_edge"]
    builds = [s[2] - s[1] for s in tracer.spans if s[0] == "metapath.corpus_build"]
    out = {
        "metapath.sample_ms_per_user": (
            _per(total["metapath.resample_user"], calls["metapath.resample_user"], 1e3), "ms"),
        "metapath.walk_yield": (_per(c["walks_returned"], c["walks_requested"]), "ratio"),
        "metapath.neighbors_per_user": (_per(c["neighbor_nodes"], c["neighbor_lists"]), "count"),
        "embedding.forward_ms_per_user": (
            _per(t["embedding.build_user_embedding"], n["embedding.build_user_embedding"], 1e3), "ms"),
        "embedding.forward_only_ms_per_user": (
            _per(t["embedding.user_embedding"], n["embedding.user_embedding"], 1e3), "ms"),
        "autodiff.tape_ops_per_user": (_per(c["tape_ops"], embedded), "count"),
        "autodiff.backward_ms_per_update": (
            _per(t["autodiff.gradients"], n["autodiff.gradients"], 1e3), "ms"),
        "policy.dist_us_per_step": (
            _per(t["policy.build_action_distribution"], n["policy.build_action_distribution"], 1e6),
            "us"),
        "policy.select_us_per_step": (
            _per(t["policy.select_action"], n["policy.select_action"], 1e6), "us"),
        "training.adam_ms_per_update": (
            _per(t["training.adam_step"], n["training.adam_step"], 1e3), "ms"),
        "training.rollback_us_per_episode": (
            _per(t["training.rollback_episode"], n["training.rollback_episode"], 1e6), "us"),
        "training.steps_per_episode": (_per(c["episode_steps"], c["episodes"]), "count"),
        "training.embeds_per_episode": (_per(c["episode_embeds"], c["episodes"]), "count"),
        "graph.edge_writes_per_episode": (_per(writes, c["episodes"]), "count"),
        "graph.edge_write_us": (
            _per(t["graph.add_edge"] + t["graph.remove_edge"], writes, 1e6), "us"),
        "metrics.build_trials_us_per_trial": (
            _per(t["metrics.build_trials"], c["trials"], 1e6), "us"),
        "metrics.rank_us_per_trial": (
            _per(self_t["metrics.score_trials"] + t["metrics.aggregate"], c["trials"], 1e6), "us"),
        "synth.generate_s": (total["synth.generate"], "s"),
        "data.split_s": (total["data.split"], "s"),
        "data.holdout_s": (total["data.holdout"], "s"),
        "data.load_s": (total["data.load"], "s"),
        "metapath.corpus_build_s": (max(builds, default=0.0), "s"),
    }
    for layer in LAYERS:
        own = sum(v for name, v in self_t.items() if layer_of(name) == layer)
        out[f"{layer}.self_pct"] = (_per(own, tracing.traced_time, 100.0), "%")
    overhead = statistics.median(tracing.traced) / statistics.median(tracing.untraced) - 1.0
    out["trace.overhead_pct"] = (100.0 * overhead, "%")
    return out


def run_one(args) -> int:
    _import_program()
    import checks
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    started = time.perf_counter()
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, tracer, scratch)
    except checks.CheckFailed as exc:
        print(f"bench: {args.workload}: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if tracer is None:
        metrics = {
            "setup_s": (result.setup_s, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "throughput_per_s": (result.throughput_per_s, "1/s"),
            "latency_p50_ms": (result.latency_p50_ms, "ms"),
        }
    else:
        metrics = layer_metrics(tracer, result.tracing)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    for name, (value, unit) in {**result.named, **metrics}.items():
        print(f"{args.workload:9s} {name:36s} {value:14.6f} {unit}")
    print(f"{args.workload:9s} {'run_wall_s':36s} {time.perf_counter() - started:14.6f} s")
    line = {
        "correct": True,
        "attempted": result.attempted,
        "failed": 0,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "named": {k: [float(v), u] for k, (v, u) in result.named.items()},
              "op_seconds": {"untraced": result.tracing.untraced,
                             "traced": result.tracing.traced}, **line}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
