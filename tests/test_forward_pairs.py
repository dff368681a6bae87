"""tools/forward_pairs.py, run on this tree against itself."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("forward_pairs", ROOT / "tools" / "forward_pairs.py")
forward_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(forward_pairs)


def test_both_sides_run_every_measurement(capsys):
    src = str(ROOT / "src")
    assert forward_pairs.main(["--parent", src, "--change", src, "--pairs", "2",
                               "--users", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "world acceptance, 2 pairs of 2 users each"
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[2:]}
    assert list(rows) == list(forward_pairs.MEASUREMENTS)
    for parent_us, change_us, ratio, pair_ratio in rows.values():
        assert parent_us > 0 and change_us > 0 and ratio > 0 and pair_ratio > 0
