"""The benchmark's tracer (``bench/spans.py``) wraps program functions by
name; every name it hooks must exist, or ``bench/run.py --trace 1`` fails.
It also counts every public ``Tape`` primitive, so each of them must be
one that the program records."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
SRC = ROOT / "src" / "hincrec"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_hooked_name_resolves():
    spans = load_spans()
    hooks = spans.SETUP_HOOKS + spans.RUN_HOOKS + spans.GRAPH_HOOKS
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in hooks
        if not (attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr))
    ]
    assert hooks
    assert missing == []


def test_every_tape_primitive_is_called_by_the_program():
    # A primitive that only tests call belongs beside them, in
    # tests/unfused.py. numpy calls of the same name (np.dot) do not count.
    source = "".join(p.read_text(encoding="utf-8") for p in SRC.glob("*.py"))
    primitives = load_spans().TAPE_PRIMITIVES
    unused = [
        name for name in primitives if not re.search(rf"(?<!\bnp)\.{name}\(", source)
    ]
    assert primitives
    assert unused == []
