"""tools/forward_pairs.py, run on this tree against itself."""

import dataclasses
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "forward_pairs.py"
spec = importlib.util.spec_from_file_location("forward_pairs", TOOL)
forward_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(forward_pairs)


def test_both_sides_run_every_measurement(capsys, tmp_path):
    # the parent side's package imports its submodules itself, as older
    # trees did; the change side is this tree's bare package
    shutil.copytree(ROOT / "src" / "hincrec", tmp_path / "hincrec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "hincrec" / "__init__.py", "a", encoding="utf-8") as init:
        init.write(f"from . import {', '.join(forward_pairs.SUBMODULES)}\n")
    assert forward_pairs.main(["--parent", str(tmp_path), "--change", str(ROOT / "src"),
                               "--pairs", "2", "--users", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "world acceptance, 2 pairs of 2 users each"
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[2:]}
    assert list(rows) == list(forward_pairs.MEASUREMENTS)
    assert {"generate", "walks", "evaluate"} <= set(rows)
    for parent_us, change_us, ratio, pair_ratio in rows.values():
        assert parent_us > 0 and change_us > 0 and ratio > 0 and pair_ratio > 0


def test_walks_and_evaluate_run_what_a_request_and_an_eval_run(monkeypatch):
    side = forward_pairs.Side(forward_pairs.load(ROOT / "src", "hincrec_side"),
                              "acceptance", 0, 3)
    pkg = side.pkg
    built, reports = [], []
    build, aggregate = pkg.metapath.PathCorpus.build.__func__, pkg.metrics.aggregate

    def recording_build(cls, graph, users, *args, **kwargs):
        built.append((graph, list(users)))
        return build(cls, graph, users, *args, **kwargs)

    def recording_aggregate(ranked):
        reports.append(aggregate(ranked))
        return reports[-1]

    monkeypatch.setattr(pkg.metapath.PathCorpus, "build", classmethod(recording_build))
    monkeypatch.setattr(pkg.metrics, "aggregate", recording_aggregate)
    assert side.walks() > 0
    assert built == [(side.env.graph, [user]) for user in side.users]
    built.clear()
    assert side.evaluate() > 0
    assert built == [(side.split.train.graph, side.test_users)]
    (report,) = reports
    assert report.n_trials == len(side.split.test_positives) > 0


def test_the_4x_and_10x_worlds_are_the_benchmarks(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    loaded = set(sys.modules)
    monkeypatch.setitem(sys.modules, "bench_workloads", workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    for name in {"checks", "spans"} - loaded:  # bench's own modules
        del sys.modules[name]
    for world in ("reinforce", "serve"):
        config = workloads.synth.SynthConfig(**forward_pairs.WORLDS[world])
        assert dataclasses.asdict(config) == dataclasses.asdict(workloads.WORLDS[world])


def test_walks_on_the_serve_world_run_what_a_request_runs(monkeypatch):
    side = forward_pairs.Side(forward_pairs.load(ROOT / "src", "hincrec_serve"), "serve", 0, 2)
    assert side.env.n_concepts == forward_pairs.WORLDS["serve"]["concepts"]
    assert side.ds.user_count() == 2000
    built = []
    build = side.pkg.metapath.PathCorpus.build.__func__

    def recording_build(cls, graph, users, *args, **kwargs):
        built.append(build(cls, graph, users, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(side.pkg.metapath.PathCorpus, "build", classmethod(recording_build))
    assert side.walks() > 0
    assert [corpus.users() for corpus in built] == [[user] for user in side.users]


def test_generate_generates_the_sides_world(monkeypatch):
    side = forward_pairs.Side(forward_pairs.load(ROOT / "src", "hincrec_generate"),
                              "acceptance", 0, 3)
    synth, worlds = side.pkg.synth, []
    generate = synth.generate_synthetic

    def recording_generate(cfg):
        worlds.append(generate(cfg))
        return worlds[-1]

    monkeypatch.setattr(synth, "generate_synthetic", recording_generate)
    assert side.generate() > 0
    (ds,) = worlds
    assert side.world == synth.SynthConfig(**forward_pairs.WORLDS["acceptance"])
    assert ds.graph.snapshot_digest() == side.ds.graph.snapshot_digest()
    assert ds.clicks == side.ds.clicks


def test_a_name_loads_again_with_fresh_submodules(tmp_path):
    shutil.copytree(ROOT / "src" / "hincrec", tmp_path / "hincrec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    first = forward_pairs.load(ROOT / "src", "hincrec_twice")
    second = forward_pairs.load(tmp_path, "hincrec_twice")
    assert second is not first
    for sub in forward_pairs.SUBMODULES:
        module = getattr(second, sub)
        assert module is not getattr(first, sub)
        assert Path(module.__file__).parent == tmp_path / "hincrec"
        assert sys.modules[f"hincrec_twice.{sub}"] is module
    forward_pairs.Side(second, "acceptance", 0, 2)


def test_blas_is_pinned_to_one_thread_before_numpy_loads():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    # records the setting at the tool's first `import numpy`
    script = (
        "import builtins, importlib.util, os, sys\n"
        "assert 'numpy' not in sys.modules\n"
        "seen, real_import = [], builtins.__import__\n"
        "def recording(name, *args, **kwargs):\n"
        "    if name == 'numpy' and not seen:\n"
        "        seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "    return real_import(name, *args, **kwargs)\n"
        "builtins.__import__ = recording\n"
        f"spec = importlib.util.spec_from_file_location('fp', {str(TOOL)!r})\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "print(seen[0])\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "1"
