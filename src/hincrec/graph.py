"""Typed heterogeneous graph store for MOOC interaction data.

Nodes are (type, index) pairs with dense per-type indices. Edges are
undirected, relation-typed and checked against the schema: each relation
may only connect one specific pair of node types.
"""

from __future__ import annotations

import bisect
import hashlib
from enum import Enum
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence


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


# bisect calls its key once per probe; attrgetter runs in C, a lambda would not
_INDEX = attrgetter("index")


def _locate(nbrs: Sequence[NodeRef], node: NodeRef) -> tuple[int, bool]:
    """Where `node` sits, or would go, in an index-sorted neighbor list,
    and whether it is there."""
    i = bisect.bisect_left(nbrs, node.index, key=_INDEX)
    return i, i < len(nbrs) and nbrs[i] == node


class HinGraph:
    """Undirected typed graph stored as per-relation adjacency lists.

    The lists, kept sorted by node index, are the only record of edges:
    (a, b, kind) is `b` in the list of (a, kind) and `a` in that of
    (b, kind). Edges carry no timestamp (click times live in the click
    log), and `add_edge` refuses a repeated triple. The schema gives each
    pair of node types one relation, so two nodes share at most one edge.
    Concurrent reads are safe; mutation requires exclusive access.
    """

    def __init__(self) -> None:
        self._counts: dict[NodeType, int] = {t: 0 for t in NodeType}
        self._adj: dict[tuple[NodeRef, Relation], list[NodeRef]] = {}

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

    def add_edge(self, a: NodeRef, b: NodeRef, kind: Relation) -> bool:
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
        if self.has_edge(a, b, kind):
            return False
        for node, other in ((a, b), (b, a)):
            nbrs = self._adj.setdefault((node, kind), [])
            nbrs.insert(_locate(nbrs, other)[0], other)
        return True

    def remove_edge(self, a: NodeRef, b: NodeRef, kind: Relation) -> bool:
        """Delete the edge triple if present; returns whether it existed."""
        if not self.has_edge(a, b, kind):
            return False
        for node, other in ((a, b), (b, a)):
            nbrs = self._adj[(node, kind)]
            del nbrs[_locate(nbrs, other)[0]]
            if not nbrs:
                del self._adj[(node, kind)]
        return True

    def has_edge(self, a: NodeRef, b: NodeRef, kind: Relation) -> bool:
        return _locate(self._adj.get((a, kind), ()), b)[1]

    def neighbors(self, node: NodeRef, kind: Relation) -> list[NodeRef]:
        """Distinct neighbors of `node` under `kind`, sorted by index."""
        return list(self._adj.get((node, kind), ()))

    def _neighbors_ref(self, node: NodeRef, kind: Relation) -> list[NodeRef]:
        # Internal view without the defensive copy; callers must not mutate.
        return self._adj.get((node, kind), [])

    def edge_count(self) -> int:
        # every edge is listed under both of its endpoints
        return sum(map(len, self._adj.values())) // 2

    def edges(self) -> Iterator[tuple[NodeRef, NodeRef, Relation]]:
        """All edges as canonical (lo, hi, kind) triples, sorted by relation
        name, then `lo`, then `hi`. A relation fixes the type of `lo`, so
        the lists of the `lo` ends, sorted, are read as stored."""
        lows = [key for key, nbrs in self._adj.items() if key[0].sort_key() < nbrs[0].sort_key()]
        lows.sort(key=lambda key: (key[1].value, key[0].index))
        for lo, kind in lows:
            for hi in self._adj[(lo, kind)]:
                yield lo, hi, kind

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
        g._adj = {k: list(v) for k, v in self._adj.items()}
        return g
