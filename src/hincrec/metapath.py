"""Meta-path templates and meta-path-constrained random-walk sampling.

A meta-path is a node-type pattern starting and ending at a user; the
union of the sampled walks that instantiate it defines the multi-hop
neighborhood used by the attention-based user embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Optional

import numpy as np

from .graph import RELATION_FOR_PAIR, HinGraph, NodeRef, NodeType, Relation

# Dead-end walks are retried at most this many times the requested count.
RETRY_FACTOR = 10


@dataclass(frozen=True)
class MetaPath:
    id: int
    pattern: tuple[NodeType, ...]
    relations: tuple[Relation, ...] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.pattern) < 3:
            raise ValueError("meta-path pattern must have at least 3 node types")
        if self.pattern[0] != NodeType.USER or self.pattern[-1] != NodeType.USER:
            raise ValueError("meta-path pattern must start and end with a user")
        rels = []
        for a, b in zip(self.pattern, self.pattern[1:]):
            pair = frozenset((a, b))
            if pair not in RELATION_FOR_PAIR:
                raise ValueError(f"no relation connects {a.value} and {b.value}")
            rels.append(RELATION_FOR_PAIR[pair])
        object.__setattr__(self, "relations", tuple(rels))

    def __len__(self) -> int:
        return len(self.pattern)


def builtin_metapaths() -> list[MetaPath]:
    """The four user-to-user meta-paths, in id order.

    MP1 links users through a shared clicked concept, MP2 through a chain
    of two such concepts, MP3 through courses covering a common concept,
    and MP4 through courses sharing a video.
    """
    u, c, v, k = NodeType.USER, NodeType.COURSE, NodeType.VIDEO, NodeType.CONCEPT
    return [
        MetaPath(1, (u, k, u)),
        MetaPath(2, (u, k, u, k, u)),
        MetaPath(3, (u, c, k, c, u)),
        MetaPath(4, (u, c, v, c, u)),
    ]


def sample_instances(
    graph: HinGraph,
    user: NodeRef,
    mp: MetaPath,
    n: int = 10,
    max_len: Optional[int] = None,
    *,
    rng: np.random.Generator,
) -> list[list[NodeRef]]:
    """Sample up to `n` walks from `user` conforming to `mp`.

    Each hop picks uniformly among the neighbors reachable under the next
    relation in the pattern. Dead-end walks are discarded and retried up to
    RETRY_FACTOR * n times; fewer than `n` instances come back when the
    budget runs out. Duplicate walks are kept (the bag is a sampling
    budget, not a set).
    """
    if user.type != NodeType.USER:
        raise ValueError(f"walks must start at a user, got {user!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_len is not None and max_len < len(mp.pattern):
        raise ValueError(
            f"max walk length {max_len} shorter than pattern length {len(mp.pattern)}"
        )

    out: list[list[NodeRef]] = []
    retries = 0
    budget = RETRY_FACTOR * n
    while len(out) < n:
        walk = [user]
        for rel in mp.relations:
            nbrs = graph._neighbors_ref(walk[-1], rel)
            if not nbrs:
                walk = []
                break
            walk.append(nbrs[int(rng.integers(len(nbrs)))])
        if walk:
            out.append(walk)
        else:
            retries += 1
            if retries >= budget:
                break
    return out


class PathCorpus:
    """Per-(user, meta-path) bags of sampled path instances, and what is
    derived from a user's bags, kept until they are next written."""

    def __init__(self, metapaths: Iterable[MetaPath]):
        self.metapaths = list(metapaths)
        self._bags: dict[tuple[NodeRef, int], list[list[NodeRef]]] = {}
        self._kept: dict[NodeRef, dict] = {}

    @classmethod
    def build(
        cls,
        graph: HinGraph,
        users: Iterable[NodeRef],
        metapaths: Iterable[MetaPath],
        n: int = 10,
        max_len: Optional[int] = None,
        *,
        rng: np.random.Generator,
    ) -> "PathCorpus":
        corpus = cls(metapaths)
        for user in users:
            corpus.resample_user(graph, user, n=n, max_len=max_len, rng=rng)
        return corpus

    def resample_user(
        self,
        graph: HinGraph,
        user: NodeRef,
        n: int = 10,
        max_len: Optional[int] = None,
        *,
        rng: np.random.Generator,
    ) -> None:
        """Re-walk all of one user's bags against the current graph."""
        self._kept.pop(user, None)
        for mp in self.metapaths:
            self._bags[(user, mp.id)] = sample_instances(
                graph, user, mp, n=n, max_len=max_len, rng=rng
            )

    def bag(self, user: NodeRef, mp_id: int) -> list[list[NodeRef]]:
        return self._bags[(user, mp_id)]

    def kept(self, user: NodeRef) -> dict:
        """The values derived from `user`'s bags, by their key; emptied
        whenever `resample_user` or `restore_user` writes the bags."""
        return self._kept.setdefault(user, {})

    def snapshot_user(self, user: NodeRef) -> dict[int, list[list[NodeRef]]]:
        return {
            mp.id: self._bags[(user, mp.id)]
            for mp in self.metapaths
            if (user, mp.id) in self._bags
        }

    def restore_user(self, user: NodeRef, saved: dict[int, list[list[NodeRef]]]) -> None:
        self._kept.pop(user, None)
        for mp_id, bag in saved.items():
            self._bags[(user, mp_id)] = bag

    # -- text serialization ---------------------------------------------
    # One line per instance: user_id<TAB>mp_id<TAB>node,node,...

    def write_text(self, fh, name_of: Callable[[NodeRef], str]) -> None:
        for (user, mp_id) in sorted(
            self._bags, key=lambda k: (k[0].sort_key(), k[1])
        ):
            for inst in self._bags[(user, mp_id)]:
                nodes = ",".join(name_of(ref) for ref in inst)
                fh.write(f"{name_of(user)}\t{mp_id}\t{nodes}\n")


def metapath_neighbors(corpus: PathCorpus, user: NodeRef, mp: MetaPath) -> list[NodeRef]:
    """The user's meta-path-based neighborhood: the user first, then the
    distinct nodes of every walk in the bag, in first-seen order.

    This is the set of nodes that the sampled instances of `mp` reach
    (HAN-style), not a single walk, so it is a deterministic function of
    the corpus. An empty bag falls back to the user alone.
    """
    return list(dict.fromkeys(chain((user,), *corpus.bag(user, mp.id))))
