import numpy as np
import pytest

from hincrec.data import (
    Dataset,
    DuplicateId,
    ParseError,
    click_counts,
    holdout_targets,
    load_dataset,
    save_dataset,
    temporal_split,
)
from hincrec.graph import HinGraph, NodeRef, NodeType, Relation, SchemaViolation
from hincrec.synth import SynthConfig, generate_synthetic

U, C, V, K = NodeType.USER, NodeType.COURSE, NodeType.VIDEO, NodeType.CONCEPT

MINIMAL_NODES = "u0\tuser\nc0\tcourse\nv0\tvideo\nk0\tconcept\n"
MINIMAL_EDGES = (
    "u0\tlearn\tc0\n"
    "c0\tcontains\tv0\n"
    "v0\tteaches\tk0\n"
    "u0\tclick\tk0\t100\n"
)


def write_pair(tmp_path, nodes=MINIMAL_NODES, edges=MINIMAL_EDGES):
    np_path = tmp_path / "nodes.tsv"
    ep_path = tmp_path / "edges.tsv"
    np_path.write_text(nodes, encoding="utf-8")
    ep_path.write_text(edges, encoding="utf-8")
    return np_path, ep_path


class TestLoad:
    def test_minimal_dataset(self, tmp_path):
        ds = load_dataset(*write_pair(tmp_path))
        assert ds.graph.total_nodes() == 4
        assert ds.graph.edge_count() == 4
        assert len(ds.clicks) == 1
        assert ds.clicks[0].ts == 100
        assert ds.ids.name(NodeRef(U, 0)) == "u0"

    def test_comments_and_blank_lines(self, tmp_path):
        nodes = "# a comment\n\n" + MINIMAL_NODES
        ds = load_dataset(*write_pair(tmp_path, nodes=nodes))
        assert ds.graph.total_nodes() == 4

    def test_schema_violation_reports_line(self, tmp_path):
        edges = "u0\tlearn\tk0\n"
        paths = write_pair(tmp_path, edges=edges)
        with pytest.raises(SchemaViolation) as err:
            load_dataset(*paths)
        assert ":1:" in str(err.value)

    def test_click_without_timestamp(self, tmp_path):
        paths = write_pair(tmp_path, edges="u0\tclick\tk0\n")
        with pytest.raises(ParseError):
            load_dataset(*paths)

    def test_unknown_relation(self, tmp_path):
        paths = write_pair(tmp_path, edges="u0\tenjoys\tk0\t5\n")
        with pytest.raises(ParseError) as err:
            load_dataset(*paths)
        assert "enjoys" in str(err.value)

    def test_unknown_node_id(self, tmp_path):
        paths = write_pair(tmp_path, edges="u0\tclick\tk9\t5\n")
        with pytest.raises(ParseError):
            load_dataset(*paths)

    def test_bad_column_count(self, tmp_path):
        paths = write_pair(tmp_path, nodes="u0\n")
        with pytest.raises(ParseError):
            load_dataset(*paths)

    def test_duplicate_id(self, tmp_path):
        paths = write_pair(tmp_path, nodes="u0\tuser\nu0\tuser\n", edges="")
        with pytest.raises(DuplicateId):
            load_dataset(*paths)

    def test_bad_timestamp(self, tmp_path):
        paths = write_pair(tmp_path, edges="u0\tclick\tk0\tnoon\n")
        with pytest.raises(ParseError):
            load_dataset(*paths)

    def test_real_scale_inventory_counts(self, tmp_path):
        # a file declaring the real corpus inventory loads with exact counts
        lines = [f"k{i}\tconcept" for i in range(2527)]
        lines += [f"c{i}\tcourse" for i in range(7327)]
        lines += ["u0\tuser", "v0\tvideo"]
        paths = write_pair(tmp_path, nodes="\n".join(lines) + "\n", edges="")
        ds = load_dataset(*paths)
        assert ds.graph.node_count(K) == 2527
        assert ds.graph.node_count(C) == 7327


# the acceptance world of tests/test_acceptance.py
ACCEPTANCE_WORLD = SynthConfig(users=200, concepts=50, clusters=5, p_in=0.9, p_out=0.02,
                               clicks_per_user=20, seed=7)


class TestSaveRoundTrip:
    def test_digest_preserved(self, tmp_path):
        cfg = SynthConfig(users=25, concepts=10, clusters=2, courses=4, videos=6,
                          p_in=0.8, p_out=0.1, clicks_per_user=6, seed=11)
        ds = generate_synthetic(cfg)
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
        assert loaded.graph.snapshot_digest() == ds.graph.snapshot_digest()
        assert len(loaded.clicks) == len(ds.clicks)

    def test_generated_world_equals_its_round_trip(self, tmp_path):
        # the generator's clicks come in the order the files keep them,
        # and its graph is the one the files rebuild
        ds = generate_synthetic(ACCEPTANCE_WORLD)
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
        assert loaded.clicks == ds.clicks
        assert list(loaded.graph.edges()) == list(ds.graph.edges())
        assert loaded.graph.snapshot_digest() == ds.graph.snapshot_digest()
        assert loaded.graph.node_counts == ds.graph.node_counts
        for node_type in NodeType:
            for i in range(ds.graph.node_count(node_type)):
                ref = NodeRef(node_type, i)
                for kind in Relation:
                    assert loaded.graph.neighbors(ref, kind) == ds.graph.neighbors(ref, kind)

    def test_save_deterministic(self, tmp_path):
        cfg = SynthConfig(users=12, concepts=8, clusters=2, courses=4, videos=4,
                          p_in=0.8, p_out=0.1, clicks_per_user=4, seed=2)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        save_dataset(generate_synthetic(cfg), a_dir)
        save_dataset(generate_synthetic(cfg), b_dir)
        assert (a_dir / "nodes.tsv").read_bytes() == (b_dir / "nodes.tsv").read_bytes()
        assert (a_dir / "edges.tsv").read_bytes() == (b_dir / "edges.tsv").read_bytes()


def clicks_dataset(tmp_path, stamped):
    """Users u0..u(n-1) clicking concepts at given times: [(u, k, ts), ...]."""
    users = sorted({u for u, _, _ in stamped})
    concepts = sorted({k for _, k, _ in stamped})
    nodes = "".join(f"u{u}\tuser\n" for u in users)
    nodes += "".join(f"k{k}\tconcept\n" for k in concepts)
    edges = "".join(f"u{u}\tclick\tk{k}\t{ts}\n" for u, k, ts in stamped)
    return load_dataset(*write_pair(tmp_path, nodes=nodes, edges=edges))


SPLIT_WORLD = SynthConfig(users=30, concepts=12, clusters=3, courses=6, videos=9,
                          p_in=0.8, p_out=0.1, clicks_per_user=8, seed=13)


def eightieth_percentile(ds):
    stamps = sorted(c.ts for c in ds.clicks)
    return stamps[int(0.8 * len(stamps))]


def built_edge_by_edge(ds, cutoff):
    """The training graph built from scratch: every node, every edge but
    the clicks, then the pair of each training click."""
    graph = HinGraph()
    for node_type in NodeType:
        graph.add_nodes(node_type, ds.graph.node_count(node_type))
    for lo, hi, kind in ds.graph.edges():
        if kind is not Relation.CLICK:
            graph.add_edge(lo, hi, kind)
    for click in ds.clicks:
        if click.ts <= cutoff:
            graph.add_edge(click.user, click.concept, Relation.CLICK)
    return graph


class TestTemporalSplit:
    def test_basic_split(self, tmp_path):
        ds = clicks_dataset(tmp_path, [(0, 0, 1), (0, 1, 2), (0, 2, 3)])
        split = temporal_split(ds, 2)
        assert len(split.train.clicks) == 2
        assert split.test_positives == [(NodeRef(U, 0), 2)]

    def test_cutoff_after_everything(self, tmp_path):
        ds = clicks_dataset(tmp_path, [(0, 0, 1), (0, 1, 2)])
        split = temporal_split(ds, 99)
        assert split.test_positives == []
        assert len(split.train.clicks) == 2

    def test_duplicate_test_clicks_collapse(self, tmp_path):
        ds = clicks_dataset(
            tmp_path,
            [(0, 0, 1), (0, 1, 5), (0, 1, 6), (0, 2, 7)],
        )
        split = temporal_split(ds, 2)
        assert split.test_positives == [(NodeRef(U, 0), 1), (NodeRef(U, 0), 2)]

    def test_cold_user_dropped_and_counted(self, tmp_path):
        ds = clicks_dataset(tmp_path, [(0, 0, 1), (1, 0, 9)])
        split = temporal_split(ds, 2)
        assert split.test_positives == []
        assert split.dropped_cold_users == 1

    def test_unclicked_concept_positive_kept(self, tmp_path):
        # a concept first clicked after the cutoff is still a valid positive
        ds = clicks_dataset(tmp_path, [(0, 0, 1), (0, 1, 9)])
        split = temporal_split(ds, 2)
        assert split.test_positives == [(NodeRef(U, 0), 1)]

    def test_training_repeat_dropped_and_counted(self, tmp_path):
        ds = clicks_dataset(tmp_path, [(0, 0, 1), (0, 0, 9), (0, 1, 9)])
        split = temporal_split(ds, 2)
        assert split.test_positives == [(NodeRef(U, 0), 1)]
        assert split.dropped_repeats == 1

    def test_no_test_click_edges_in_train_graph(self, tmp_path):
        ds = clicks_dataset(
            tmp_path, [(0, 0, 1), (0, 1, 9), (1, 1, 1), (1, 0, 9)]
        )
        split = temporal_split(ds, 5)
        for user, concept in split.test_positives:
            assert not split.train.graph.has_edge(
                user, NodeRef(K, concept), Relation.CLICK
            )

    def test_train_graph_keeps_other_edges_and_training_click_pairs(self):
        ds = generate_synthetic(SPLIT_WORLD)
        cutoff = eightieth_percentile(ds)
        train = temporal_split(ds, cutoff).train.graph
        kept = set(train.edges())
        every = set(ds.graph.edges())
        others = {e for e in every if e[2] is not Relation.CLICK}
        assert {e for e in kept if e[2] is not Relation.CLICK} == others
        click_pairs = {(lo, hi) for lo, hi, kind in kept if kind is Relation.CLICK}
        assert click_pairs == {(c.user, c.concept) for c in ds.clicks if c.ts <= cutoff}
        assert click_pairs < {(c.user, c.concept) for c in ds.clicks}
        built = built_edge_by_edge(ds, cutoff)
        assert train.snapshot_digest() == built.snapshot_digest()
        for node_type in NodeType:
            for i in range(ds.graph.node_count(node_type)):
                ref = NodeRef(node_type, i)
                for kind in Relation:
                    assert train.neighbors(ref, kind) == built.neighbors(ref, kind)

    def test_clicked_by_user_covers_both_windows(self, tmp_path):
        ds = clicks_dataset(tmp_path, [(0, 0, 1), (0, 1, 9)])
        split = temporal_split(ds, 5)
        clicked = split.clicked_by_user()
        assert clicked[NodeRef(U, 0)] == {0, 1}


class TestHoldout:
    def test_tail_held_out(self, tmp_path):
        ds = clicks_dataset(
            tmp_path, [(0, 0, 1), (0, 1, 2), (0, 2, 3), (0, 3, 4)]
        )
        hold = holdout_targets(ds, 0.5)
        user = NodeRef(U, 0)
        assert hold.targets[user] == frozenset({2, 3})
        assert hold.graph.has_edge(user, NodeRef(K, 0), Relation.CLICK)
        assert hold.graph.has_edge(user, NodeRef(K, 1), Relation.CLICK)
        assert not hold.graph.has_edge(user, NodeRef(K, 2), Relation.CLICK)
        assert not hold.graph.has_edge(user, NodeRef(K, 3), Relation.CLICK)

    def test_single_click_user_still_has_target(self, tmp_path):
        ds = clicks_dataset(tmp_path, [(0, 0, 1)])
        hold = holdout_targets(ds, 0.5)
        assert hold.targets[NodeRef(U, 0)] == frozenset({0})

    def test_targets_disjoint_from_wired_clicks(self, tmp_path):
        cfg = SynthConfig(users=20, concepts=10, clusters=2, courses=4, videos=4,
                          p_in=0.8, p_out=0.1, clicks_per_user=6, seed=5)
        ds = generate_synthetic(cfg)
        hold = holdout_targets(ds, 0.5)
        for user, held in hold.targets.items():
            for concept in held:
                assert not hold.graph.has_edge(
                    user, NodeRef(K, concept), Relation.CLICK
                )

    def test_fraction_validation(self, tmp_path):
        ds = clicks_dataset(tmp_path, [(0, 0, 1)])
        with pytest.raises(ValueError):
            holdout_targets(ds, 0.0)


def test_click_counts(tmp_path):
    ds = clicks_dataset(tmp_path, [(0, 0, 1), (1, 0, 2), (0, 1, 3)])
    counts = click_counts(ds)
    assert np.array_equal(counts, [2.0, 1.0])
