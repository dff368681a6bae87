import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hincrec
from hincrec.cli import main
from hincrec.data import load_dataset
from hincrec.graph import NodeRef, NodeType, Relation
from hincrec.metapath import PathCorpus
from hincrec.metrics import PolicyScorer
from hincrec.model import ModelParams
from hincrec.serialize import MAGIC
from hincrec import cli

SYNTH_CFG = """\
users = 24
concepts = 12
clusters = 2
courses = 4
videos = 8
p_in = 0.9
p_out = 0.05
clicks = 8
seed = 3
"""

RUN_CFG = """\
seed = 5
d = 8
L = 2
N = 4
l = 5
E = 12
T = 4
pretrain_episodes = 15
batch = 4
"""

CUTOFF = 1_660_000_000
SRC = str(Path(hincrec.__file__).resolve().parents[1])

# Prints the BLAS thread setting that `hincrec.cli`'s first `import numpy`
# sees, after checking that the bare package loads no numpy.
BLAS_AT_NUMPY_IMPORT = (
    "import builtins, os, sys\n"
    "import hincrec\n"
    "assert 'numpy' not in sys.modules\n"
    "seen, real_import = [], builtins.__import__\n"
    "def recording(name, *args, **kwargs):\n"
    "    if name == 'numpy' and not seen:\n"
    "        seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    "    return real_import(name, *args, **kwargs)\n"
    "builtins.__import__ = recording\n"
    "import hincrec.cli\n"
    "print(seen[0])\n"
)


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "synth.cfg").write_text(SYNTH_CFG, encoding="utf-8")
    (tmp_path / "run.cfg").write_text(RUN_CFG, encoding="utf-8")
    data_dir = tmp_path / "data"
    assert main(["gen", "--config", str(tmp_path / "synth.cfg"), "--out", str(data_dir)]) == 0
    return tmp_path


def test_gen_writes_dataset(workspace):
    data = workspace / "data"
    assert (data / "nodes.tsv").exists()
    assert (data / "edges.tsv").exists()
    ds = load_dataset(data / "nodes.tsv", data / "edges.tsv")
    assert ds.user_count() == 24
    assert ds.concept_count() == 12


def test_sample_writes_corpus(workspace):
    out = workspace / "corpus.tsv"
    code = main(
        [
            "sample",
            "--data", str(workspace / "data"),
            "--out", str(out),
            "--config", str(workspace / "run.cfg"),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines
    user_id, mp_id, nodes = lines[0].split("\t")
    assert user_id.startswith("u")
    assert mp_id in {"1", "2", "3", "4"}
    assert nodes.split(",")[0] == user_id


def test_train_eval_recommend_flow(workspace, capsys):
    data = str(workspace / "data")
    ckpt = workspace / "model.bin"
    rewards = workspace / "rewards.tsv"
    code = main(
        [
            "train",
            "--config", str(workspace / "run.cfg"),
            "--data", data,
            "--ckpt", str(ckpt),
            "--cutoff", str(CUTOFF),
            "--reward-log", str(rewards),
        ]
    )
    assert code == 0
    assert ckpt.read_bytes()[:4] == MAGIC
    reward_lines = rewards.read_text(encoding="utf-8").strip().splitlines()
    assert len(reward_lines) == 1 + 12  # header + one line per episode

    code = main(
        ["eval", "--ckpt", str(ckpt), "--data", data, "--cutoff", str(CUTOFF)]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    cells = line.split("\t")
    assert len(cells) == 8
    for cell in cells:
        value = float(cell)
        assert 0.0 <= value <= 100.0
        assert "." in cell and len(cell.split(".")[1]) == 2

    code = main(
        [
            "recommend",
            "--ckpt", str(ckpt),
            "--data", data,
            "--user", "u0",
            "--topk", "3",
        ]
    )
    assert code == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == 3
    rank, concept, score = out_lines[0].split("\t")
    assert rank == "1"
    assert concept.startswith("k")
    float(score)


def test_train_passes_the_config_batch_to_reinforce(workspace, monkeypatch):
    (workspace / "run.cfg").write_text(RUN_CFG.replace("batch = 4", "batch = 3"),
                                       encoding="utf-8")
    seen, real = [], cli.train_rl

    def recording_train_rl(*args, **kwargs):
        seen.append(kwargs["batch"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "train_rl", recording_train_rl)
    assert main(["train", "--config", str(workspace / "run.cfg"), "--data",
                 str(workspace / "data"), "--ckpt", str(workspace / "model.bin"),
                 "--from-scratch"]) == 0
    assert seen == [3]


def test_eval_random_scorer(workspace, capsys):
    code = main(
        [
            "eval",
            "--data", str(workspace / "data"),
            "--cutoff", str(CUTOFF),
            "--scorer", "random",
            "--pretty",
        ]
    )
    assert code == 0
    assert "HR@5" in capsys.readouterr().out


def test_pretrain_subcommand(workspace):
    ckpt = workspace / "sl.bin"
    code = main(
        [
            "pretrain",
            "--config", str(workspace / "run.cfg"),
            "--data", str(workspace / "data"),
            "--ckpt", str(ckpt),
            "--cutoff", str(CUTOFF),
        ]
    )
    assert code == 0
    assert ckpt.exists()


def test_recommend_walks_with_the_config(workspace, capsys):
    # run.cfg sets N = 4 walks per meta-path and seed 5
    data, ckpt, cfg = workspace / "data", workspace / "sl.bin", workspace / "run.cfg"
    assert main(["pretrain", "--config", str(cfg), "--data", str(data), "--ckpt", str(ckpt),
                 "--cutoff", str(CUTOFF)]) == 0
    capsys.readouterr()
    assert main(["recommend", "--ckpt", str(ckpt), "--data", str(data), "--user", "u0",
                 "--topk", "5", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()

    ds = load_dataset(data / "nodes.tsv", data / "edges.tsv")
    model = ModelParams.load(ckpt)
    user = ds.ids.ref("u0")
    clicked = {ref.index for ref in ds.graph.neighbors(user, Relation.CLICK)}

    def top5(walks):
        corpus = PathCorpus.build(ds.graph, [user], model.embed.metapaths, n=walks,
                                  max_len=5, rng=np.random.default_rng(5))
        logits = PolicyScorer(model, ds.graph, corpus).logits(user)
        order = sorted((c for c in range(len(logits)) if c not in clicked),
                       key=lambda c: (-logits[c], c))
        return [f"{rank}\t{ds.ids.name(NodeRef(NodeType.CONCEPT, c))}\t{logits[c]:.6f}"
                for rank, c in enumerate(order[:5], start=1)]

    assert printed == top5(4)
    assert printed != top5(10)


def test_unknown_flag_exits_1(workspace, capsys):
    code = main(["gen", "--config", "x", "--out", "y", "--frobnicate"])
    assert code == 1
    assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("flag", ["--negatives", "--topk"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_count_below_one_exits_1(workspace, capsys, flag, value):
    data = str(workspace / "data")
    command = {
        "--negatives": ["eval", "--data", data, "--cutoff", str(CUTOFF), "--scorer", "random"],
        "--topk": ["recommend", "--ckpt", str(workspace / "model.bin"), "--data", data,
                   "--user", "u0"],
    }[flag]
    assert main([*command, flag, value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage" in err.lower()
    assert f"argument {flag}: must be at least 1, got {value}" in err


def test_unknown_command_exits_1(capsys):
    assert main(["explode"]) == 1


def test_missing_data_exits_2(workspace, capsys):
    code = main(
        ["eval", "--data", str(workspace / "nowhere"), "--cutoff", "5", "--scorer", "random"]
    )
    assert code == 2


def test_malformed_dataset_exits_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "nodes.tsv").write_text("u0\tuser\nk0\tconcept\n", encoding="utf-8")
    (bad / "edges.tsv").write_text("u0\tlearn\tk0\n", encoding="utf-8")
    code = main(
        ["eval", "--data", str(bad), "--cutoff", "5", "--scorer", "random"]
    )
    assert code == 2


def test_bad_config_exits_2(workspace, capsys):
    cfg = workspace / "broken.cfg"
    cfg.write_text("unknown_key = 5\n", encoding="utf-8")
    code = main(["gen", "--config", str(cfg), "--out", str(workspace / "d2")])
    assert code == 2


@pytest.mark.parametrize("command, key, message", [
    ("pretrain", "batch", "batch must be >= 1, got 0"),
    ("train", "T", "horizon must be >= 1, got 0"),
])
def test_count_below_one_in_config_exits_2(workspace, capsys, command, key, message):
    assert_bad_count_exits_2(workspace, capsys, command, key, 0, message)


@pytest.mark.parametrize("command, key, value, message", [
    ("pretrain", "pretrain_episodes", -3, "episodes must be >= 0, got -3"),
    ("train", "E", -1, "episodes must be >= 0, got -1"),
])
def test_negative_episodes_in_config_exit_2(workspace, capsys, command, key, value, message):
    assert_bad_count_exits_2(workspace, capsys, command, key, value, message)


def assert_bad_count_exits_2(workspace, capsys, command, key, value, message):
    """`command` run with `key` set to `value` in the run config exits 2
    with `message` and writes no checkpoint."""
    line = next(line for line in RUN_CFG.splitlines() if line.startswith(f"{key} = "))
    cfg = workspace / "bad.cfg"
    cfg.write_text(RUN_CFG.replace(f"\n{line}\n", f"\n{key} = {value}\n"), encoding="utf-8")
    argv = [command, "--config", str(cfg), "--data", str(workspace / "data"),
            "--ckpt", str(workspace / "model.bin")]
    argv += ["--cutoff", str(CUTOFF)] if command == "pretrain" else ["--from-scratch"]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"hincrec: {message}" in capsys.readouterr().err
    assert not (workspace / "model.bin").exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "hincrec" in capsys.readouterr().out


def test_eval_of_a_nan_checkpoint_exits_2(workspace, capsys):
    # every user's logits read path.W, so the first trial's user is named
    ckpt = workspace / "sl.bin"
    data = str(workspace / "data")
    assert main(["pretrain", "--config", str(workspace / "run.cfg"), "--data", data,
                 "--ckpt", str(ckpt), "--cutoff", str(CUTOFF)]) == 0
    model = ModelParams.load(ckpt)
    model.embed.tensors["path.W"][0, 0] = np.nan
    model.save(ckpt)
    capsys.readouterr()
    argv = ["eval", "--config", str(workspace / "run.cfg"), "--data", data,
            "--ckpt", str(ckpt), "--cutoff", str(CUTOFF)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "hincrec: NaN score in a trial of user:" in err


@pytest.mark.parametrize("users, concepts", [(10, 8), (40, 16)])
def test_checkpoint_refuses_other_dataset(workspace, capsys, users, concepts):
    ckpt = workspace / "sl.bin"
    assert main(
        [
            "pretrain",
            "--config", str(workspace / "run.cfg"),
            "--data", str(workspace / "data"),
            "--ckpt", str(ckpt),
            "--cutoff", str(CUTOFF),
        ]
    ) == 0
    other_cfg = workspace / "other.cfg"
    other_cfg.write_text(
        SYNTH_CFG.replace("users = 24", f"users = {users}")
        .replace("concepts = 12", f"concepts = {concepts}"),
        encoding="utf-8",
    )
    other = str(workspace / "other")
    assert main(["gen", "--config", str(other_cfg), "--out", other]) == 0
    capsys.readouterr()

    for argv in (
        ["eval", "--ckpt", str(ckpt), "--data", other, "--cutoff", str(CUTOFF)],
        ["recommend", "--ckpt", str(ckpt), "--data", other, "--user", "u0"],
        ["train", "--config", str(workspace / "run.cfg"), "--data", other,
         "--ckpt", str(workspace / "rl.bin"), "--init", str(ckpt)],
    ):
        assert main(argv) == 2, argv[0]
        out, err = capsys.readouterr()
        assert out == ""
        assert f"trained on 24 user nodes, the dataset has {users}" in err


def _run_python(script, blas=None):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_importing_the_package_loads_no_numpy():
    assert _run_python("import sys, hincrec; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("blas, seen", [(None, "1"), ("2", "2")])
def test_cli_pins_blas_before_numpy_loads_unless_set(blas, seen):
    assert _run_python(BLAS_AT_NUMPY_IMPORT, blas) == seen
