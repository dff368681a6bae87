"""Typed heterogeneous graph store for MOOC interaction data.

Nodes are (type, index) pairs with dense per-type indices. Edges are
undirected, relation-typed, optionally timestamped, and checked against the
schema: each relation may only connect one specific pair of node types.
"""

from __future__ import annotations

import bisect
import hashlib
from enum import Enum
from typing import Iterator, NamedTuple, Optional


class NodeType(Enum):
    USER = "user"
    COURSE = "course"
    VIDEO = "video"
    CONCEPT = "concept"


# Each node type's position in NodeType: nodes sort by it, then by index.
TYPE_ORDER = {t: i for i, t in enumerate(NodeType)}


class NodeRef(NamedTuple):
    type: NodeType
    index: int

    def sort_key(self) -> tuple[int, int]:
        return (TYPE_ORDER[self.type], self.index)

    def __repr__(self) -> str:
        return f"{self.type.value}:{self.index}"


class Relation(Enum):
    LEARN = "learn"        # user - course
    WATCH = "watch"        # user - video
    CLICK = "click"        # user - concept
    CONTAINS = "contains"  # course - video
    COVERS = "covers"      # course - concept
    TEACHES = "teaches"    # video - concept


ENDPOINTS: dict[Relation, frozenset[NodeType]] = {
    Relation.LEARN: frozenset((NodeType.USER, NodeType.COURSE)),
    Relation.WATCH: frozenset((NodeType.USER, NodeType.VIDEO)),
    Relation.CLICK: frozenset((NodeType.USER, NodeType.CONCEPT)),
    Relation.CONTAINS: frozenset((NodeType.COURSE, NodeType.VIDEO)),
    Relation.COVERS: frozenset((NodeType.COURSE, NodeType.CONCEPT)),
    Relation.TEACHES: frozenset((NodeType.VIDEO, NodeType.CONCEPT)),
}

# Every unordered type pair maps to exactly one relation, which lets a
# meta-path's relation sequence be derived from its node-type pattern.
RELATION_FOR_PAIR: dict[frozenset[NodeType], Relation] = {
    pair: rel for rel, pair in ENDPOINTS.items()
}


class SchemaViolation(Exception):
    """Edge endpoints do not match the relation's declared type pair."""


def _canonical(a: NodeRef, b: NodeRef) -> tuple[NodeRef, NodeRef]:
    return (a, b) if a.sort_key() <= b.sort_key() else (b, a)


class HinGraph:
    """Undirected typed graph with per-relation adjacency lists.

    It holds at most one edge per (a, b, kind) triple, with the timestamp
    it was first added with: `add_edge` refuses a repeat. The schema gives
    each pair of node types one relation, so two nodes share at most one
    edge. Adjacency is stored symmetrically (an edge appears under both
    endpoints) and neighbor lists are kept sorted by node index.
    Concurrent reads are safe; mutation requires exclusive access.
    """

    def __init__(self) -> None:
        self._counts: dict[NodeType, int] = {t: 0 for t in NodeType}
        self._adj: dict[tuple[NodeRef, Relation], list[NodeRef]] = {}
        self._ts: dict[tuple[Relation, NodeRef, NodeRef], Optional[int]] = {}

    # -- nodes ---------------------------------------------------------

    def add_node(self, node_type: NodeType) -> NodeRef:
        idx = self._counts[node_type]
        self._counts[node_type] = idx + 1
        return NodeRef(node_type, idx)

    def add_nodes(self, node_type: NodeType, count: int) -> list[NodeRef]:
        return [self.add_node(node_type) for _ in range(count)]

    def node_count(self, node_type: NodeType) -> int:
        return self._counts[node_type]

    @property
    def node_counts(self) -> dict[NodeType, int]:
        return dict(self._counts)

    def total_nodes(self) -> int:
        return sum(self._counts.values())

    def _check_node(self, ref: NodeRef) -> None:
        if not 0 <= ref.index < self._counts[ref.type]:
            raise ValueError(f"unknown node {ref!r}")

    # -- edges ---------------------------------------------------------

    def add_edge(
        self,
        a: NodeRef,
        b: NodeRef,
        kind: Relation,
        ts: Optional[int] = None,
    ) -> bool:
        """Insert the undirected edge (a, b, kind).

        Returns True on insertion, False (and no mutation) when the same
        triple is already present. Raises SchemaViolation when the endpoint
        types do not match the relation.
        """
        self._check_node(a)
        self._check_node(b)
        if frozenset((a.type, b.type)) != ENDPOINTS[kind]:
            raise SchemaViolation(
                f"relation {kind.value!r} cannot connect "
                f"{a.type.value} and {b.type.value}"
            )
        key = (kind, *_canonical(a, b))
        if key in self._ts:
            return False
        self._ts[key] = ts
        self._insert(a, kind, b)
        self._insert(b, kind, a)
        return True

    def remove_edge(self, a: NodeRef, b: NodeRef, kind: Relation) -> bool:
        """Delete the edge triple if present; returns whether it existed."""
        key = (kind, *_canonical(a, b))
        if key not in self._ts:
            return False
        del self._ts[key]
        self._delete(a, kind, b)
        self._delete(b, kind, a)
        return True

    def has_edge(self, a: NodeRef, b: NodeRef, kind: Relation) -> bool:
        return (kind, *_canonical(a, b)) in self._ts

    def _insert(self, node: NodeRef, kind: Relation, other: NodeRef) -> None:
        lst = self._adj.setdefault((node, kind), [])
        bisect.insort(lst, other, key=lambda r: r.index)

    def _delete(self, node: NodeRef, kind: Relation, other: NodeRef) -> None:
        lst = self._adj[(node, kind)]
        i = bisect.bisect_left(lst, other.index, key=lambda r: r.index)
        if i < len(lst) and lst[i] == other:
            del lst[i]
        if not lst:
            del self._adj[(node, kind)]

    def neighbors(self, node: NodeRef, kind: Relation) -> list[NodeRef]:
        """Distinct neighbors of `node` under `kind`, sorted by index."""
        return list(self._adj.get((node, kind), ()))

    def _neighbors_ref(self, node: NodeRef, kind: Relation) -> list[NodeRef]:
        # Internal view without the defensive copy; callers must not mutate.
        return self._adj.get((node, kind), [])

    def edge_count(self) -> int:
        return len(self._ts)

    def edges(self) -> Iterator[tuple[NodeRef, NodeRef, Relation, Optional[int]]]:
        """All edges as canonical (lo, hi, kind, ts) tuples, sorted."""
        for kind, lo, hi in sorted(
            self._ts, key=lambda k: (k[0].value, k[1].sort_key(), k[2].sort_key())
        ):
            yield lo, hi, kind, self._ts[(kind, lo, hi)]

    # -- digest / copy -------------------------------------------------

    def snapshot_digest(self) -> int:
        """64-bit digest of the sorted edge triples.

        Invariant under insertion order; equal edge sets give equal digests.
        """
        h = hashlib.blake2b(digest_size=8)
        for lo, hi, kind, _ in self.edges():
            h.update(
                f"{kind.value}|{lo.type.value}:{lo.index}|"
                f"{hi.type.value}:{hi.index}\n".encode()
            )
        return int.from_bytes(h.digest(), "little")

    def copy(self) -> "HinGraph":
        g = HinGraph()
        g._counts = dict(self._counts)
        g._adj = {k: list(v) for k, v in self._adj.items()}
        g._ts = dict(self._ts)
        return g
