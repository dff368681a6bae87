import hashlib
import math
import os
import subprocess
import sys
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

import hincrec
from hincrec.graph import NodeType, Relation
from hincrec.metapath import builtin_metapaths, sample_instances
from hincrec.synth import ConfigInvalid, SynthConfig, generate_synthetic

U, K = NodeType.USER, NodeType.CONCEPT


def cluster_of(ref, clusters):
    return ref.index % clusters


def in_cluster_fraction(cfg: SynthConfig) -> float:
    """Expected fraction of clicks landing in the user's own cluster."""
    cfg = cfg.resolved()
    return cfg.p_in / (cfg.p_in + (cfg.clusters - 1) * cfg.p_out)


class TestConfig:
    def test_counts_must_cover_clusters(self):
        with pytest.raises(ConfigInvalid):
            SynthConfig(users=3, concepts=50, clusters=5).resolved()

    def test_p_in_must_exceed_p_out(self):
        with pytest.raises(ConfigInvalid):
            SynthConfig(p_in=0.1, p_out=0.5).resolved()

    def test_defaults_resolve(self):
        cfg = SynthConfig().resolved()
        assert cfg.courses == 10
        assert cfg.videos == 20


class TestGenerator:
    def test_deterministic_given_seed(self):
        cfg = SynthConfig(users=200, concepts=50, clusters=5, p_in=0.9,
                          p_out=0.02, clicks_per_user=20, seed=7)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert a.graph.snapshot_digest() == b.graph.snapshot_digest()
        assert [(c.user, c.concept, c.ts) for c in a.clicks] == [
            (c.user, c.concept, c.ts) for c in b.clicks
        ]

    def test_in_cluster_fraction_within_3_sigma(self):
        # oracle: each click is in-cluster with probability
        # p_in / (p_in + (clusters-1) * p_out)
        cfg = SynthConfig(users=200, concepts=50, clusters=5, p_in=0.9,
                          p_out=0.02, clicks_per_user=20, seed=7)
        ds = generate_synthetic(cfg)
        p = in_cluster_fraction(cfg)
        n = len(ds.clicks)
        hits = sum(
            1
            for c in ds.clicks
            if cluster_of(c.user, cfg.clusters) == cluster_of(c.concept, cfg.clusters)
        )
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(hits - n * p) <= 3 * sigma

    def test_single_cluster_degenerate(self):
        cfg = SynthConfig(users=10, concepts=6, clusters=1, courses=2, videos=3,
                          p_in=0.9, p_out=0.0, clicks_per_user=4, seed=1)
        ds = generate_synthetic(cfg)
        assert len(ds.clicks) == 40
        # MP1 connects any two users sharing a click
        g = ds.graph
        mp1 = builtin_metapaths()[0]
        user = ds.clicks[0].user
        walks = sample_instances(g, user, mp1, n=10, rng=np.random.default_rng(0))
        assert len(walks)  # shared pool guarantees click co-occurrence

    def test_schema_complete(self):
        cfg = SynthConfig(users=30, concepts=10, clusters=2, seed=3)
        ds = generate_synthetic(cfg)
        kinds = {kind for _, _, kind in ds.graph.edges()}
        assert kinds == set(Relation)

    def test_metapath_walks_exist_for_all_patterns(self):
        cfg = SynthConfig(users=40, concepts=20, clusters=4, seed=9)
        ds = generate_synthetic(cfg)
        rng = np.random.default_rng(2)
        user = ds.clicks[0].user
        for mp in builtin_metapaths():
            assert len(sample_instances(ds.graph, user, mp, n=5, rng=rng)), mp.id

    def test_mp3_walks_stay_reachable_between_same_cluster_users(self):
        cfg = SynthConfig(users=40, concepts=20, clusters=4, seed=4)
        ds = generate_synthetic(cfg)
        mp3 = builtin_metapaths()[2]
        rng = np.random.default_rng(0)
        for click in ds.clicks[:5]:
            for inst in sample_instances(ds.graph, click.user, mp3, n=10, rng=rng):
                # endpoints share the cluster: courses only cover own-cluster
                # concepts and users only learn own-cluster courses
                assert inst[0] % cfg.clusters == inst[-1] % cfg.clusters

    def test_click_timestamps_in_window(self):
        from hincrec.synth import TS_SPAN, TS_START

        ds = generate_synthetic(SynthConfig(users=20, concepts=10, clusters=2, seed=6))
        for c in ds.clicks:
            assert TS_START <= c.ts < TS_START + TS_SPAN


class TestPinned:
    """The generator draws what it drew with rng.choice and rng.integers."""

    def test_acceptance_world(self):
        # tests/test_acceptance.py's world, pinned where it was generated
        # with one rng.choice(clusters, p=w) and two rng.integers per click
        ds = generate_synthetic(SynthConfig(users=200, concepts=50, clusters=5, p_in=0.9,
                                            p_out=0.02, clicks_per_user=20, seed=7))
        log = "".join(f"{c.user.index}\t{c.concept.index}\t{c.ts}\n" for c in ds.clicks)
        assert len(ds.clicks) == 4000
        assert ds.graph.snapshot_digest() == 6232154629589704086
        assert hashlib.sha256(log.encode()).hexdigest() == (
            "d7c2df3bc27f219d0fa316294f8d8696d7bdb70716845f405854f6453779b543"
        )

    @pytest.mark.parametrize("w", [[0.25, 0.0, 0.5, 0.0, 0.25], [0.0, 1.0], [1.0, 0.0], [1.0]])
    def test_cluster_pick_equals_choice(self, w):
        # the click loop's cluster pick: one uniform searched in numpy's cdf
        w = np.array(w)
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        cdf = w.cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()
        picks = [bisect_right(cdf, ours.random()) for _ in range(500)]
        assert picks == [int(theirs.choice(len(w), p=w)) for _ in picks]
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert set(picks) == set(np.flatnonzero(w).tolist())

    @pytest.mark.parametrize("p_out", [float("nan"), -0.01])
    def test_click_weights_are_checked(self, monkeypatch, p_out):
        # rng.choice checked its probabilities on every call; the click loop
        # checks them once per user, past a config that skipped validation
        monkeypatch.setattr(SynthConfig, "validate", lambda self: None)
        with pytest.raises(ValueError, match="not probabilities"):
            generate_synthetic(SynthConfig(users=10, concepts=6, clusters=2, p_out=p_out))


def test_written_dataset_independent_of_hash_seed(tmp_path):
    # NodeType hashes by its name, which Python randomizes per process;
    # generation must not iterate anything in hash order
    script = (
        "import sys\n"
        "from hincrec.data import save_dataset\n"
        "from hincrec.synth import SynthConfig, generate_synthetic\n"
        "save_dataset(generate_synthetic(SynthConfig()), sys.argv[1])\n"
    )
    src = str(Path(hincrec.__file__).resolve().parents[1])
    written = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        out = tmp_path / hash_seed
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
        written.append((out / "edges.tsv").read_bytes())
    assert written[0] == written[1]
