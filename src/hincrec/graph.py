"""Typed heterogeneous graph store for MOOC interaction data.

Nodes are (type, index) pairs with dense per-type indices. Edges are
undirected, relation-typed and checked against the schema: each relation
may only connect one specific pair of node types.
"""

from __future__ import annotations

import bisect
import hashlib
from enum import Enum
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional


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


# The type at the other end of each relation, by the type at one end.
OTHER_END: dict[tuple[NodeType, Relation], NodeType] = {
    (t, rel): other for rel, pair in ENDPOINTS.items() for t in pair for other in pair - {t}
}

# A node's key is its type's position in TYPE_ORDER, shifted left by
# KEY_SHIFT bits, or-ed with its index: keys sort as `NodeRef.sort_key` does.
KEY_SHIFT = 32


def node_key(ref: NodeRef) -> int:
    return TYPE_ORDER[ref.type] << KEY_SHIFT | ref.index


# One NodeRef per (type, index), shared by every graph: neighbor lists
# and walks hand out these objects rather than a new one per visit.
_SHARED_REFS: dict[NodeType, list[NodeRef]] = {t: [] for t in NodeType}


def shared_refs(node_type: NodeType) -> list[NodeRef]:
    """The shared refs of `node_type`, by index, for every index that a
    graph has added."""
    return _SHARED_REFS[node_type]


class HinGraph:
    """Undirected typed graph stored as integer adjacency rows.

    For each node type and relation at that type, a dict maps a node's
    index to the sorted indices of its neighbors under the relation: the
    rows are the only record of edges, and (a, b, kind) is b's index in
    a's row and a's index in b's. Edges carry no timestamp (click times
    live in the click log), and `add_edge` refuses a repeated triple. The
    schema gives each pair of node types one relation, so two nodes share
    at most one edge. Concurrent reads are safe; mutation requires
    exclusive access.
    """

    def __init__(self) -> None:
        self._counts: dict[NodeType, int] = {t: 0 for t in NodeType}
        self._rows: dict[tuple[NodeType, Relation], dict[int, list[int]]] = {
            end: {} for end in OTHER_END
        }
        self._lookups: dict[Hashable, list] = {}  # see `row_lookups`

    # -- nodes ---------------------------------------------------------

    def add_node(self, node_type: NodeType) -> NodeRef:
        return self.add_nodes(node_type, 1)[0]

    def add_nodes(self, node_type: NodeType, count: int) -> list[NodeRef]:
        lo = self._counts[node_type]
        hi = self._counts[node_type] = lo + count
        refs = _SHARED_REFS[node_type]
        refs.extend(NodeRef(node_type, i) for i in range(len(refs), hi))
        return refs[lo:hi]

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

    def add_edge(self, a: NodeRef, b: NodeRef, kind: Relation) -> bool:
        """Insert the undirected edge (a, b, kind).

        Returns True on insertion, False (and no mutation) when the same
        triple is already present. Raises SchemaViolation when the endpoint
        types do not match the relation.
        """
        self._check_node(a)
        self._check_node(b)
        if OTHER_END.get((a.type, kind)) is not b.type:
            raise SchemaViolation(
                f"relation {kind.value!r} cannot connect "
                f"{a.type.value} and {b.type.value}"
            )
        row = self._rows[(a.type, kind)].setdefault(a.index, [])
        i = bisect.bisect_left(row, b.index)
        if i < len(row) and row[i] == b.index:
            return False
        row.insert(i, b.index)
        row = self._rows[(b.type, kind)].setdefault(b.index, [])
        row.insert(bisect.bisect_left(row, a.index), a.index)
        return True

    def remove_edge(self, a: NodeRef, b: NodeRef, kind: Relation) -> bool:
        """Delete the edge triple if present; returns whether it existed."""
        if not self.has_edge(a, b, kind):
            return False
        for node, other in ((a, b), (b, a)):
            rows = self._rows[(node.type, kind)]
            row = rows[node.index]
            del row[bisect.bisect_left(row, other.index)]
            if not row:
                del rows[node.index]
        return True

    def has_edge(self, a: NodeRef, b: NodeRef, kind: Relation) -> bool:
        if OTHER_END.get((a.type, kind)) is not b.type:
            return False
        row = self._rows[(a.type, kind)].get(a.index, ())
        i = bisect.bisect_left(row, b.index)
        return i < len(row) and row[i] == b.index

    def row_lookups(
        self, key: Hashable, ends: Iterable[tuple[NodeType, Relation]]
    ) -> list[Callable[[int], Optional[list[int]]]]:
        """The ``get`` of the live adjacency rows of each (type, kind) of
        `ends`: a node's index to its neighbors' sorted indices, or None
        for a node that has none. Callers must not mutate the rows.

        The list is made once and kept under `key`, which must stand for
        the same `ends` on every call (a meta-path's `type_keys` does). A
        copy of the graph keeps none of them."""
        lookups = self._lookups.get(key)
        if lookups is None:
            lookups = self._lookups[key] = [self._rows[end].get for end in ends]
        return lookups

    def neighbors(self, node: NodeRef, kind: Relation) -> list[NodeRef]:
        """Distinct neighbors of `node` under `kind`, sorted by index."""
        other = OTHER_END.get((node.type, kind))
        if other is None:
            return []
        refs = _SHARED_REFS[other]
        return [refs[i] for i in self._rows[(node.type, kind)].get(node.index, ())]

    def edge_count(self) -> int:
        # every edge is listed under both of its endpoints
        return sum(len(row) for rows in self._rows.values() for row in rows.values()) // 2

    def edges(self) -> Iterator[tuple[NodeRef, NodeRef, Relation]]:
        """All edges as canonical (lo, hi, kind) triples, sorted by relation
        name, then `lo`, then `hi`. A relation fixes the type of `lo`, so
        the rows of the `lo` ends, sorted, are read as stored."""
        for kind in sorted(Relation, key=lambda rel: rel.value):
            lo_type, hi_type = sorted(ENDPOINTS[kind], key=TYPE_ORDER.get)
            los, his = _SHARED_REFS[lo_type], _SHARED_REFS[hi_type]
            rows = self._rows[(lo_type, kind)]
            for i in sorted(rows):
                lo = los[i]
                for j in rows[i]:
                    yield lo, his[j], kind

    # -- digest / copy -------------------------------------------------

    def snapshot_digest(self) -> int:
        """64-bit digest of the sorted edge triples.

        Invariant under insertion order; equal edge sets give equal digests.
        """
        h = hashlib.blake2b(digest_size=8)
        for lo, hi, kind in self.edges():
            h.update(
                f"{kind.value}|{lo.type.value}:{lo.index}|"
                f"{hi.type.value}:{hi.index}\n".encode()
            )
        return int.from_bytes(h.digest(), "little")

    def copy(self) -> "HinGraph":
        g = HinGraph()
        g._counts = dict(self._counts)
        g._rows = {
            end: {i: list(row) for i, row in rows.items()} for end, rows in self._rows.items()
        }
        return g
