import numpy as np
import pytest

from hincrec.embedding import EmbedConfig
from hincrec.graph import HinGraph, NodeType
from hincrec.metapath import builtin_metapaths
from hincrec.model import ModelParams, init_model
from hincrec.serialize import MAGIC, CheckpointError, load_tensors, save_tensors


def test_tensor_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.matrix": rng.normal(0, 1, (3, 4)),
        "b.vector": rng.normal(0, 1, 7),
        "c.scalar": np.asarray(3.25),
    }
    path = tmp_path / "t.bin"
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert set(loaded) == set(tensors)
    for k in tensors:
        assert np.array_equal(loaded[k], tensors[k])
        assert loaded[k].shape == tensors[k].shape


def test_magic_header(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"x": np.zeros(2)})
    assert path.read_bytes()[:4] == MAGIC == b"HCR1"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_tensors(path)


def test_truncated_rejected(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"x": np.arange(10.0)})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 8])
    with pytest.raises(CheckpointError):
        load_tensors(path)


def test_write_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"z": rng.normal(0, 1, (5, 5)), "a": rng.normal(0, 1, 3)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_tensors(p1, tensors)
    save_tensors(p2, dict(reversed(tensors.items())))  # insertion order ignored
    assert p1.read_bytes() == p2.read_bytes()


def _graph():
    g = HinGraph()
    g.add_nodes(NodeType.USER, 4)
    g.add_nodes(NodeType.COURSE, 2)
    g.add_nodes(NodeType.VIDEO, 2)
    g.add_nodes(NodeType.CONCEPT, 5)
    return g


def test_model_checkpoint_roundtrip(tmp_path):
    g = _graph()
    model = init_model(
        g,
        builtin_metapaths(),
        EmbedConfig(dim=8, heads=2, feat_dim=4, path_hidden=6),
        rng=np.random.default_rng(3),
    )
    path = tmp_path / "model.bin"
    model.save(path)
    loaded = ModelParams.load(path)
    assert loaded.embed.cfg == model.embed.cfg
    assert [mp.id for mp in loaded.embed.metapaths] == [1, 2, 3, 4]
    assert loaded.policy.n_concepts == 5
    for name, arr in model.tensors.items():
        assert np.array_equal(loaded.tensors[name], arr), name


def test_model_checkpoint_single_metapath(tmp_path):
    g = _graph()
    mps = [builtin_metapaths()[2]]
    model = init_model(
        g, mps, EmbedConfig(dim=4, heads=2, feat_dim=4, path_hidden=6),
        rng=np.random.default_rng(4),
    )
    path = tmp_path / "m.bin"
    model.save(path)
    loaded = ModelParams.load(path)
    assert [mp.id for mp in loaded.embed.metapaths] == [3]


def test_model_checkpoint_byte_identical(tmp_path):
    g = _graph()
    paths = []
    for i in range(2):
        model = init_model(
            g,
            builtin_metapaths(),
            EmbedConfig(dim=8, heads=2, feat_dim=4, path_hidden=6),
            rng=np.random.default_rng(42),
        )
        p = tmp_path / f"m{i}.bin"
        model.save(p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_checkpoint_with_zero_variant_flags_loads(tmp_path):
    # files written before the variant flags were dropped carry
    # meta.flags = [average_path_scores, freeze_instance_choice, tied]
    model = init_model(
        _graph(), builtin_metapaths(),
        EmbedConfig(dim=8, heads=2, feat_dim=4, path_hidden=6),
        rng=np.random.default_rng(5),
    )
    path = tmp_path / "m.bin"
    model.save(path)
    assert "meta.flags" not in load_tensors(path)
    save_tensors(path, {**load_tensors(path), "meta.flags": np.zeros(3)})
    loaded = ModelParams.load(path)
    assert loaded.embed.cfg == model.embed.cfg
    assert set(loaded.tensors) == set(model.tensors)
    for name, arr in model.tensors.items():
        assert np.array_equal(loaded.tensors[name], arr), name


@pytest.mark.parametrize("flag", [0, 1, 2])
def test_checkpoint_with_variant_flag_rejected(tmp_path, flag):
    model = init_model(
        _graph(), builtin_metapaths(),
        EmbedConfig(dim=8, heads=2, feat_dim=4, path_hidden=6),
        rng=np.random.default_rng(5),
    )
    path = tmp_path / "m.bin"
    model.save(path)
    flags = np.zeros(3)
    flags[flag] = 1.0
    save_tensors(path, {**load_tensors(path), "meta.flags": flags})
    with pytest.raises(CheckpointError, match="meta.flags"):
        ModelParams.load(path)


def test_checkpoint_with_the_fixed_slope_loads(tmp_path):
    # files written before the slope was fixed carry meta.leaky_slope = 0.2
    model = init_model(
        _graph(), builtin_metapaths(),
        EmbedConfig(dim=8, heads=2, feat_dim=4, path_hidden=6),
        rng=np.random.default_rng(5),
    )
    path = tmp_path / "m.bin"
    model.save(path)
    assert "meta.leaky_slope" not in load_tensors(path)
    save_tensors(path, {**load_tensors(path), "meta.leaky_slope": np.array(0.2)})
    loaded = ModelParams.load(path)
    assert loaded.embed.cfg == model.embed.cfg
    assert loaded.embed.cfg.leaky_slope == 0.2
    for name, arr in model.tensors.items():
        assert np.array_equal(loaded.tensors[name], arr), name


def test_checkpoint_with_another_slope_rejected(tmp_path):
    model = init_model(
        _graph(), builtin_metapaths(),
        EmbedConfig(dim=8, heads=2, feat_dim=4, path_hidden=6),
        rng=np.random.default_rng(5),
    )
    path = tmp_path / "m.bin"
    model.save(path)
    save_tensors(path, {**load_tensors(path), "meta.leaky_slope": np.array(0.1)})
    with pytest.raises(CheckpointError, match="meta.leaky_slope"):
        ModelParams.load(path)
