"""Meta-path templates and meta-path-constrained random-walk sampling.

A meta-path is a node-type pattern starting and ending at a user; the
union of the sampled walks that instantiate it defines the multi-hop
neighborhood used by the attention-based user embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

import numpy as np
from numpy.typing import ArrayLike

from .graph import (
    KEY_SHIFT,
    RELATION_FOR_PAIR,
    TYPE_ORDER,
    HinGraph,
    NodeRef,
    NodeType,
    Relation,
    node_key,
    shared_refs,
)

# Dead-end walks are retried at most this many times the requested count.
RETRY_FACTOR = 10


@dataclass(frozen=True)
class MetaPath:
    id: int
    pattern: tuple[NodeType, ...]
    relations: tuple[Relation, ...] = field(init=False)
    # the key of node index 0 of each pattern position's type
    type_keys: tuple[int, ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(
            self, "type_keys", tuple(TYPE_ORDER[t] << KEY_SHIFT for t in self.pattern)
        )

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


def bounded_draws(rng: np.random.Generator) -> Callable[[int], int]:
    """A function that draws what ``rng.integers(k)`` draws, for k from 2
    to 2**32 - 1, and leaves `rng` where that call does: numpy's Lemire
    multiply-shift on ``next_uint32``, at a quarter of the call's cost.
    It skips the bit generator's lock: every caller draws from one thread,
    and across threads the lock would not keep the stream deterministic
    anyway. Callers skip k = 1."""
    iface = rng.bit_generator.ctypes
    next_uint32, state = iface.next_uint32, iface.state

    def draw(k: int) -> int:
        m = next_uint32(state) * k
        if m & 0xFFFFFFFF < k:
            threshold = (0x100000000 - k) % k
            while m & 0xFFFFFFFF < threshold:
                m = next_uint32(state) * k
        return m >> 32

    draw.bit_generator = rng.bit_generator  # owns the memory `state` points to
    return draw


def sample_instances(
    graph: HinGraph,
    user: NodeRef,
    mp: MetaPath,
    n: int = 10,
    max_len: Optional[int] = None,
    *,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample up to `n` walks from `user` conforming to `mp`, as the
    (walks, len(mp)) array of their node indices; column i holds nodes of
    type ``mp.pattern[i]``.

    Each hop picks uniformly among the neighbors reachable under the next
    relation in the pattern: in walk order, the hops draw what one
    ``rng.integers(degree)`` each would (`bounded_draws`), and leave `rng`
    where those calls would; a hop from a node with one neighbor draws
    nothing. Dead-end walks are discarded and retried up to RETRY_FACTOR *
    n times; fewer than `n` instances come back when the budget runs out.
    Duplicate walks are kept (the bag is a sampling budget, not a set).
    """
    if user.type != NodeType.USER:
        raise ValueError(f"walks must start at a user, got {user!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_len is not None and max_len < len(mp.pattern):
        raise ValueError(
            f"max walk length {max_len} shorter than pattern length {len(mp.pattern)}"
        )

    hops = [graph.rows(t, rel).get for t, rel in zip(mp.pattern, mp.relations)]
    draw = bounded_draws(rng)
    out: list[list[int]] = []
    retries = 0
    budget = RETRY_FACTOR * n
    while len(out) < n:
        node = user.index
        walk = [node]
        for hop in hops:
            nbrs = hop(node)
            if not nbrs:
                break
            node = nbrs[draw(len(nbrs))] if len(nbrs) > 1 else nbrs[0]
            walk.append(node)
        if len(walk) == len(mp.pattern):
            out.append(walk)
        else:
            retries += 1
            if retries >= budget:
                break
    walks = np.array(out, dtype=np.int64).reshape(len(out), len(mp.pattern))
    walks.flags.writeable = False
    return walks


class PathCorpus:
    """Per-(user, meta-path) bags of sampled path instances, and what is
    derived from a user's bags, kept until they are next written.

    A bag is the read-only (walks, pattern length) array of node indices
    that `sample_instances` returns."""

    def __init__(self, metapaths: Iterable[MetaPath]):
        self.metapaths = list(metapaths)
        self._by_id = {mp.id: mp for mp in self.metapaths}
        self._bags: dict[tuple[NodeRef, int], np.ndarray] = {}
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

    def users(self) -> list[NodeRef]:
        """The users that have bags, in the order they were first written."""
        return list(dict.fromkeys(user for user, _ in self._bags))

    def walks(self, user: NodeRef, mp_id: int) -> np.ndarray:
        return self._bags[(user, mp_id)]

    def bag(self, user: NodeRef, mp_id: int) -> list[list[NodeRef]]:
        """The walks of `walks(user, mp_id)` as lists of (shared) NodeRefs."""
        walks = self._bags[(user, mp_id)]
        refs = [shared_refs(t) for t in self._by_id[mp_id].pattern]
        return [[r[i] for r, i in zip(refs, walk)] for walk in walks.tolist()]

    def kept(self, user: NodeRef) -> dict:
        """The values derived from `user`'s bags, by their key; emptied
        whenever `resample_user` or `restore_user` writes the bags."""
        return self._kept.setdefault(user, {})

    def snapshot_user(self, user: NodeRef) -> dict[int, np.ndarray]:
        return {
            mp.id: self._bags[(user, mp.id)]
            for mp in self.metapaths
            if (user, mp.id) in self._bags
        }

    def restore_user(self, user: NodeRef, saved: Mapping[int, ArrayLike]) -> None:
        """Write `user`'s bags from `saved`, by meta-path id: arrays as
        `snapshot_user` returns them, or anything that numpy reads as
        one (an empty list is an empty bag)."""
        self._kept.pop(user, None)
        for mp_id, bag in saved.items():
            walks = np.array(bag, dtype=np.int64).reshape(-1, len(self._by_id[mp_id]))
            walks.flags.writeable = False
            self._bags[(user, mp_id)] = walks

    # -- text serialization ---------------------------------------------
    # One line per instance: user_id<TAB>mp_id<TAB>node,node,...

    def write_text(self, fh, name_of: Callable[[NodeRef], str]) -> None:
        for (user, mp_id) in sorted(
            self._bags, key=lambda k: (k[0].sort_key(), k[1])
        ):
            for inst in self.bag(user, mp_id):
                nodes = ",".join(name_of(ref) for ref in inst)
                fh.write(f"{name_of(user)}\t{mp_id}\t{nodes}\n")


def metapath_neighbors(corpus: PathCorpus, user: NodeRef, mp: MetaPath) -> np.ndarray:
    """The user's meta-path-based neighborhood, as the node keys (see
    `graph.node_key`) of the user first, then the distinct nodes of every
    walk in the bag, in first-seen order.

    This is the set of nodes that the sampled instances of `mp` reach
    (HAN-style), not a single walk, so it is a deterministic function of
    the corpus. An empty bag falls back to the user alone.
    """
    walks = corpus.walks(user, mp.id)
    keys = [node_key(user), *(walks + mp.type_keys).ravel().tolist()]
    return np.array(list(dict.fromkeys(keys)), dtype=np.int64)
