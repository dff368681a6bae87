"""tools/train_digest.py, on short runs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("train_digest", ROOT / "tools" / "train_digest.py")
train_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(train_digest)


def test_two_runs_print_the_same_line(capsys):
    args = ["--pretrain", "2", "--episodes", "16"]
    assert train_digest.main(args) == 0
    assert train_digest.main(args) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second
    digest, rest = first.split(" ", 1)
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert rest.startswith("later steps: acceptance/8 ")
    assert [run.split()[0] for run in rest.split(": ", 1)[1].split(", ")] == [
        "acceptance/8", "acceptance/1", "reinforce/8", "reinforce/1"
    ]
