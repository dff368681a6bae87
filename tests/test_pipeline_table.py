"""tools/pipeline_table.py, on a shortened acceptance pipeline."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("pipeline_table", ROOT / "tools" / "pipeline_table.py")
pipeline_table = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pipeline_table)


def test_one_row_per_seed_from_the_acceptance_pipeline(monkeypatch, capsys):
    acceptance = pipeline_table.acceptance
    monkeypatch.setattr(acceptance, "PRETRAIN_EPISODES", 3)
    monkeypatch.setattr(acceptance, "RL_EPISODES", 3)
    trained = []
    real = acceptance.train_pipeline

    def recording(metapaths, seed=7):
        trained.append(([mp.id for mp in metapaths], seed))
        return real(metapaths, seed)

    monkeypatch.setattr(acceptance, "train_pipeline", recording)
    assert pipeline_table.main(["--seeds", "4"]) == 0
    assert trained == [([1, 2, 3, 4], 4), ([1], 4), ([2], 4), ([3], 4), ([4], 4)]
    head, rule, row = capsys.readouterr().out.strip().splitlines()
    assert head.split(" | ")[1:8] == [
        "reinforced", "pretrained", "random", "MP1", "MP2", "MP3", "MP4"
    ]
    cells = [cell.strip() for cell in row.strip("| ").split(" | ")]
    assert len(cells) == len(head.strip("| ").split(" | ")) == rule.count("---")
    assert cells[0] == "4"
    for cell in cells[1:8]:
        hr5, hits = cell.split()
        assert 0.0 <= float(hr5) <= 1.0 and hits.strip("()").isdigit()
    assert cells[8].startswith("HR@5 ") and "ranks changed" in cells[8]
    assert cells[9].startswith("MP") and "ranks changed" in cells[9]
