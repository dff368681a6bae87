"""Every random draw in hincrec comes from a generator its caller passed
or seeded: no ``rng`` parameter defaults to None (a fallback that would
draw from an unseeded stream), and no ``default_rng`` is called without
a seed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hincrec"


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def unseeded_draws(source: str, filename: str = "<string>") -> list[str]:
    """`filename:line: what` for each rng parameter defaulting to None and
    each default_rng call without a seed, or with a None seed."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
            pairs = [*zip(positional, defaults), *zip(args.kwonlyargs, args.kw_defaults)]
            found += [
                f"{filename}:{arg.lineno}: parameter {arg.arg} defaults to None"
                for arg, default in pairs
                if arg.arg == "rng" and default is not None and _is_none(default)
            ]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            seeds = [*node.args, *(kw.value for kw in node.keywords if kw.arg == "seed")]
            if name == "default_rng" and (not seeds or _is_none(seeds[0])):
                found.append(f"{filename}:{node.lineno}: default_rng without a seed")
    return found


@pytest.mark.parametrize(
    "source",
    [
        "def f(x, rng=None): pass",
        "def f(x, *, rng=None): pass",
        "f = lambda rng=None: rng",
        "import numpy as np\nrng = np.random.default_rng()",
        "from numpy.random import default_rng\nrng = default_rng(None)",
        "import numpy as np\nrng = np.random.default_rng(seed=None)",
    ],
)
def test_guard_flags_an_unseeded_draw(source):
    assert len(unseeded_draws(source)) == 1


@pytest.mark.parametrize(
    "source",
    [
        "def f(x, rng): pass",
        "def f(x=None, *, rng): pass",
        "def f(rng, n=None): pass",
        "import numpy as np\nrng = np.random.default_rng(7)",
        "import numpy as np\nrng = np.random.default_rng(seed=[7, 1])",
    ],
)
def test_guard_passes_a_seeded_draw(source):
    assert unseeded_draws(source) == []


def test_no_unseeded_draw_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        hit
        for path in files
        for hit in unseeded_draws(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == []
