"""The summary of tools/bench_pairs.py, on made-up run records."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
]


def records(throughput, latency):
    return [{"throughput_per_s": t, "latency_p50_ms": l} for t, l in zip(throughput, latency)]


def test_medians_quartiles_and_pairs_won():
    runs = {"w": {
        "parent": records([100, 110, 90, 105, 95], [2.0, 2.0, 3.0, 1.0, 2.5]),
        "change": records([150, 110, 140, 160, 145], [1.0, 2.0, 2.0, 1.5, 1.0]),
    }}
    row = bench_pairs.summarize(runs, METRICS)["w"]
    tp = row["throughput_per_s"]
    # exclusive quartiles, as statistics.quantiles(n=4) and bench/README.md
    assert tp["parent"] == {"median": 100.0, "q1": 92.5, "q3": 107.5}
    assert tp["change"] == {"median": 145.0, "q1": 125.0, "q3": 155.0}
    assert tp["parent_spread_share"] == pytest.approx(0.15)
    # pair 2 is a tie and counts for neither side
    assert (tp["pairs"], tp["pairs_won"], tp["gain"]) == (5, 4, False)
    lat = row["latency_p50_ms"]
    assert lat["parent"]["median"] == 2.0
    assert lat["change"]["median"] == 1.5
    # lower is better: pairs 1, 3 and 5 won, pair 2 tied, pair 4 lost
    assert lat["pairs_won"] == 3
    assert lat["runs"]["change"] == [1.0, 2.0, 2.0, 1.5, 1.0]


def test_gain_needs_nine_tenths_and_a_lead_beyond_the_spread():
    parent = [100.0 + i for i in range(10)]  # quartiles 101.75 and 107.25
    clear = {"w": {"parent": records(parent, parent),
                   "change": records([p + 10 for p in parent], [p - 10 for p in parent])}}
    rows = bench_pairs.summarize(clear, METRICS)["w"]
    assert rows["throughput_per_s"]["gain"] and rows["latency_p50_ms"]["gain"]
    narrow = {"w": {"parent": records(parent, parent),
                    "change": records([p + 1 for p in parent], parent)}}
    rows = bench_pairs.summarize(narrow, METRICS)["w"]
    assert rows["throughput_per_s"]["pairs_won"] == 10
    assert not rows["throughput_per_s"]["gain"]  # lead 1 < spread 5.5
    assert rows["latency_p50_ms"]["pairs_won"] == 0


def test_regression_beyond_the_bound_and_unresolved_spread():
    steady = [100.0, 101.0, 99.0, 100.0, 100.0, 101.0, 99.0, 100.0, 100.0, 100.0]
    runs = {"w": {"parent": records(steady, steady),
                  "change": records([v * 0.7 for v in steady], [v * 1.2 for v in steady])}}
    rows = bench_pairs.summarize(runs, METRICS)["w"]
    tp, lat = rows["throughput_per_s"], rows["latency_p50_ms"]
    assert tp["worse_share"] == pytest.approx(0.3) and tp["regressed"]
    assert lat["worse_share"] == pytest.approx(0.2) and not lat["regressed"]
    assert not tp["unresolved"] and not lat["unresolved"]
    wide = [60.0, 140.0, 70.0, 130.0, 100.0, 100.0, 65.0, 135.0, 100.0, 100.0]
    runs = {"w": {"parent": records(wide, wide), "change": records(wide, wide)}}
    rows = bench_pairs.summarize(runs, METRICS)["w"]
    assert rows["throughput_per_s"]["parent_spread_share"] > 0.25
    assert rows["throughput_per_s"]["unresolved"]
    assert rows["throughput_per_s"]["worse_share"] == 0.0
    assert not rows["throughput_per_s"]["regressed"]


def test_unequal_pair_counts_rejected():
    runs = {"w": {"parent": records([1, 2], [1, 2]), "change": records([1], [1])}}
    with pytest.raises(ValueError, match="2 parent runs, 1 change runs"):
        bench_pairs.summarize(runs, METRICS)


def test_failed_or_incorrect_run_stops(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "import json, sys\n"
        "print(json.dumps({'correct': sys.argv[2] == 'ok', 'failed': 0, 'metrics': {}}))\n"
    )
    assert bench_pairs.run_bench(tmp_path, "ok", 1, 0.1, 0) == {}
    with pytest.raises(bench_pairs.RunFailed, match="reported"):
        bench_pairs.run_bench(tmp_path, "bad", 1, 0.1, 0)
    (bench / "run.py").write_text("import sys\nsys.exit(3)\n")
    with pytest.raises(bench_pairs.RunFailed, match="exited 3"):
        bench_pairs.run_bench(tmp_path, "ok", 1, 0.1, 0)
