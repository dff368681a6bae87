"""Flat-file dataset ingestion, saving, and temporal splitting.

Formats (UTF-8, tab-separated, full-line ``#`` comments allowed):

  nodes.tsv  external_id <TAB> type            type in {user,course,video,concept}
  edges.tsv  src_id <TAB> relation <TAB> dst_id [<TAB> timestamp]

Timestamps are unix seconds. The column is checked on any edge and
required on clicks; only the click log keeps it (it drives the temporal
train/test split), and the graph stores edges untimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .graph import HinGraph, NodeRef, NodeType, Relation, SchemaViolation

_TYPE_BY_NAME = {t.value: t for t in NodeType}
_RELATION_BY_NAME = {r.value: r for r in Relation}


class ParseError(Exception):
    """Malformed input line; the message carries file and line number."""


class DuplicateId(Exception):
    """An external node id occurred twice in nodes.tsv."""


class IdMap:
    """Bijection between external string ids and graph node refs."""

    def __init__(self) -> None:
        self._to_ref: dict[str, NodeRef] = {}
        self._to_name: dict[NodeRef, str] = {}

    def add(self, name: str, ref: NodeRef) -> None:
        if name in self._to_ref:
            raise DuplicateId(f"node id {name!r} declared twice")
        self._to_ref[name] = ref
        self._to_name[ref] = name

    def ref(self, name: str) -> NodeRef:
        return self._to_ref[name]

    def name(self, ref: NodeRef) -> str:
        return self._to_name[ref]

    def __contains__(self, name: str) -> bool:
        return name in self._to_ref


@dataclass
class Click:
    user: NodeRef
    concept: NodeRef
    ts: int

    def sort_key(self) -> tuple[int, int, int]:
        """The click log's order: by time, then user, then concept index."""
        return (self.ts, self.user.index, self.concept.index)


@dataclass
class Dataset:
    graph: HinGraph
    clicks: list[Click]
    ids: IdMap

    def concept_count(self) -> int:
        return self.graph.node_count(NodeType.CONCEPT)

    def user_count(self) -> int:
        return self.graph.node_count(NodeType.USER)


def _data_lines(path: Union[str, Path]):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, line


def load_dataset(nodes_path: Union[str, Path], edges_path: Union[str, Path]) -> Dataset:
    """Parse node and edge files into a schema-validated dataset."""
    graph = HinGraph()
    ids = IdMap()
    for lineno, line in _data_lines(nodes_path):
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(f"{nodes_path}:{lineno}: expected 2 columns, got {len(cols)}")
        name, type_name = cols
        node_type = _TYPE_BY_NAME.get(type_name)
        if node_type is None:
            raise ParseError(f"{nodes_path}:{lineno}: unknown node type {type_name!r}")
        ids.add(name, graph.add_node(node_type))

    clicks: list[Click] = []
    for lineno, line in _data_lines(edges_path):
        cols = line.split("\t")
        if len(cols) not in (3, 4):
            raise ParseError(f"{edges_path}:{lineno}: expected 3 or 4 columns, got {len(cols)}")
        src_name, rel_name, dst_name = cols[:3]
        relation = _RELATION_BY_NAME.get(rel_name)
        if relation is None:
            raise ParseError(f"{edges_path}:{lineno}: unknown relation {rel_name!r}")
        for name in (src_name, dst_name):
            if name not in ids:
                raise ParseError(f"{edges_path}:{lineno}: unknown node id {name!r}")
        ts: Optional[int] = None
        if len(cols) == 4:
            try:
                ts = int(cols[3])
            except ValueError:
                raise ParseError(
                    f"{edges_path}:{lineno}: bad timestamp {cols[3]!r}"
                ) from None
        if relation is Relation.CLICK and ts is None:
            raise ParseError(f"{edges_path}:{lineno}: click edges require a timestamp")
        src, dst = ids.ref(src_name), ids.ref(dst_name)
        try:
            graph.add_edge(src, dst, relation)
        except SchemaViolation as exc:
            raise SchemaViolation(f"{edges_path}:{lineno}: {exc}") from None
        if relation is Relation.CLICK:
            user, concept = (src, dst) if src.type == NodeType.USER else (dst, src)
            clicks.append(Click(user, concept, ts))
    return Dataset(graph=graph, clicks=clicks, ids=ids)


def save_dataset(ds: Dataset, out_dir: Union[str, Path]) -> tuple[Path, Path]:
    """Write nodes.tsv / edges.tsv deterministically; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nodes_path = out / "nodes.tsv"
    edges_path = out / "edges.tsv"
    with open(nodes_path, "w", encoding="utf-8") as fh:
        for node_type in NodeType:
            for i in range(ds.graph.node_count(node_type)):
                ref = NodeRef(node_type, i)
                fh.write(f"{ds.ids.name(ref)}\t{node_type.value}\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        for lo, hi, kind in ds.graph.edges():
            if kind is Relation.CLICK:
                continue  # the click log below carries every click with its time
            fh.write(f"{ds.ids.name(lo)}\t{kind.value}\t{ds.ids.name(hi)}\n")
        for click in sorted(ds.clicks, key=Click.sort_key):
            fh.write(
                f"{ds.ids.name(click.user)}\tclick\t{ds.ids.name(click.concept)}\t{click.ts}\n"
            )
    return nodes_path, edges_path


@dataclass
class SplitResult:
    train: Dataset
    test_positives: list[tuple[NodeRef, int]]  # (user, concept index), deduplicated
    dropped_cold_users: int     # positives of users without any training click
    dropped_repeats: int        # positives repeating a training click pair

    def clicked_by_user(self) -> dict[NodeRef, set]:
        """Concepts each user touched in either window (negative-pool filter)."""
        clicked: dict[NodeRef, set] = {}
        for click in self.train.clicks:
            clicked.setdefault(click.user, set()).add(click.concept.index)
        for user, concept in self.test_positives:
            clicked.setdefault(user, set()).add(concept)
        return clicked


def temporal_split(ds: Dataset, cutoff: int) -> SplitResult:
    """Clicks at or before `cutoff` stay as training edges; later clicks
    become test positives, deduplicated per user. Positives of users with
    no training click, or repeating a pair already wired in training, are
    dropped and counted, so no test positive exists as a training edge.

    The training graph is a copy of ``ds.graph`` without the click edges
    of pairs that have no click at or before `cutoff`, so ``ds.graph``
    must hold every click of ``ds.clicks``, as `load_dataset` and
    `generate_synthetic` build it."""
    train_graph = ds.graph.copy()
    train_clicks = [c for c in ds.clicks if c.ts <= cutoff]
    train_pairs = {(c.user, c.concept.index) for c in train_clicks}
    train_users = {c.user for c in train_clicks}
    seen: set[tuple[NodeRef, int]] = set()
    test: list[tuple[NodeRef, int]] = []
    dropped_users = 0
    dropped_repeats = 0
    for click in ds.clicks:
        if click.ts <= cutoff:
            continue
        key = (click.user, click.concept.index)
        if key in seen:
            continue  # repeat clicks on one concept collapse to a single positive
        seen.add(key)
        if key in train_pairs:
            dropped_repeats += 1
            continue
        train_graph.remove_edge(click.user, click.concept, Relation.CLICK)
        if click.user not in train_users:
            dropped_users += 1
            continue
        test.append(key)
    test.sort(key=lambda pair: (pair[0].index, pair[1]))
    train = Dataset(graph=train_graph, clicks=train_clicks, ids=ds.ids)
    return SplitResult(
        train=train,
        test_positives=test,
        dropped_cold_users=dropped_users,
        dropped_repeats=dropped_repeats,
    )


@dataclass
class HoldoutResult:
    graph: HinGraph                      # training graph minus held-out click edges
    targets: dict[NodeRef, frozenset]    # held-out concept indices per user


def holdout_targets(train: Dataset, fraction: float = 0.5) -> HoldoutResult:
    """Hold out the tail of each user's distinct clicked concepts (by first
    click time) as episode/pretraining targets, unwiring their edges.

    Every user with at least one click contributes at least one target.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    first_click: dict[NodeRef, dict[int, int]] = {}
    for click in train.clicks:
        per_user = first_click.setdefault(click.user, {})
        concept = click.concept.index
        if concept not in per_user or click.ts < per_user[concept]:
            per_user[concept] = click.ts
    graph = train.graph.copy()
    targets: dict[NodeRef, frozenset] = {}
    for user in sorted(first_click, key=lambda r: r.index):
        per_user = first_click[user]
        chronological = sorted(per_user, key=lambda c: (per_user[c], c))
        n_hold = max(1, math.ceil(fraction * len(chronological)))
        held = tuple(chronological[len(chronological) - n_hold :])
        for concept in held:
            graph.remove_edge(user, NodeRef(NodeType.CONCEPT, concept), Relation.CLICK)
        targets[user] = frozenset(held)
    return HoldoutResult(graph=graph, targets=targets)


def click_counts(train: Dataset) -> np.ndarray:
    """Per-concept click totals in the training window (popularity scores)."""
    counts = np.zeros(train.graph.node_count(NodeType.CONCEPT))
    for click in train.clicks:
        counts[click.concept.index] += 1
    return counts
