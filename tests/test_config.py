import pytest

from hincrec.config import ConfigError, TrainConfig, load_synth_config, load_train_config


def test_training_defaults():
    cfg = TrainConfig()
    assert cfg.seed == 42
    assert cfg.d == 64
    assert cfg.L == 8
    assert cfg.N == 10
    assert cfg.T == 20
    assert cfg.gamma == 0.9
    assert cfg.epsilon == 0.18
    assert cfg.lam == 0.08
    assert cfg.lr_pretrain == 0.001
    assert cfg.lr_rl == 0.0001
    assert cfg.batch == 8
    assert cfg.pretrain_episodes == 10_000


def test_parse_training_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# run settings\n"
        "seed = 7\n"
        "d = 32\n"
        "L = 4\n"
        "lambda = 0.05\n"
        "lr_rl = 1e-3\n"
        "pretrain_episodes = 100\n",
        encoding="utf-8",
    )
    cfg = load_train_config(path)
    assert cfg.seed == 7
    assert cfg.d == 32
    assert cfg.L == 4
    assert cfg.lam == 0.05
    assert cfg.lr_rl == 1e-3
    assert cfg.pretrain_episodes == 100
    assert cfg.T == 20  # untouched default


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("momentum = 0.9\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_train_config(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_train_config(path)


def test_bad_syntax_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed 7\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_train_config(path)


def test_heads_must_divide_dim(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("d = 10\nL = 4\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_train_config(path)


def test_parse_synth_file(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text(
        "users = 200\nconcepts = 50\nclusters = 5\n"
        "p_in = 0.9\np_out = 0.02\nclicks = 20\nseed = 7\n",
        encoding="utf-8",
    )
    cfg = load_synth_config(path)
    assert cfg.users == 200
    assert cfg.concepts == 50
    assert cfg.clusters == 5
    assert cfg.p_in == 0.9
    assert cfg.p_out == 0.02
    assert cfg.clicks_per_user == 20
    assert cfg.seed == 7


def test_synth_unknown_key(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text("branches = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_synth_config(path)


def test_synth_optional_counts_parse_as_int(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text("courses = 6\nvideos = 12\n", encoding="utf-8")
    cfg = load_synth_config(path)
    assert cfg.courses == 6 and type(cfg.courses) is int
    assert cfg.videos == 12 and type(cfg.videos) is int


def test_synth_int_key_rejects_fraction(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text("users = 2.5\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_synth_config(path)


@pytest.mark.parametrize(
    "loader, line",
    [(load_train_config, "lam = 0.1\n"), (load_synth_config, "clicks_per_user = 5\n")],
)
def test_field_name_of_aliased_key_rejected(tmp_path, loader, line):
    path = tmp_path / "x.cfg"
    path.write_text(line, encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown"):
        loader(path)
