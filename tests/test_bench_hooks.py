"""The benchmark's tracer (``bench/spans.py``) wraps program functions by
name; every name it hooks must exist, or ``bench/run.py --trace 1`` fails."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_hooked_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooks = spans.SETUP_HOOKS + spans.RUN_HOOKS + spans.GRAPH_HOOKS
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in hooks
        if not (attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr))
    ]
    assert hooks
    assert missing == []
