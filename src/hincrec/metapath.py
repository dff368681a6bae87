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
# The most words a `Words` source draws at once; a block is a list of ints.
BLOCK_WORDS = 4096


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
    anyway. Callers skip k = 1.

    `synth.generate_synthetic` alone uses it: it interleaves
    ``rng.random()`` with its bounded draws, so words drawn ahead (`Words`)
    cannot serve it. The walks draw from `Words`."""
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


class Words:
    """The ``next_uint32`` words of `rng`, drawn ahead in blocks, for
    bounded draws equal to ``rng.integers(k)``'s.

    ``rng.integers(0, 2**32, size=b, dtype=np.uint32)`` reads one
    ``next_uint32`` per word for every bit generator, so `buf` holds the
    words that per-draw calls would read, in order, and `pos` is the next
    unread one. A reader may take ``buf[pos]`` itself when ``word * k``
    has a low half of at least k (Lemire's one-word case), and advance
    `pos`; every other draw goes through `bounded`. Blocks start at
    `first` words and double up to BLOCK_WORDS. After the last draw,
    `settle` leaves `rng` where the per-draw calls would have.
    """

    def __init__(self, rng: np.random.Generator, first: int):
        self.rng = rng
        self.buf: list[int] = []
        self.pos = 0
        self._size = max(1, min(first, BLOCK_WORDS))
        self._state: Optional[dict] = None  # the bit generator's, before `buf`

    def bounded(self, k: int) -> int:
        """What ``rng.integers(k)`` draws, for k from 2 to 2**32 - 1, read
        from the word at `pos` on."""
        buf, pos = self.buf, self.pos
        while True:
            if pos == len(buf):
                buf, pos = self._refill(), 0
            m = buf[pos] * k
            pos += 1
            low = m & 0xFFFFFFFF
            if low >= k or low >= (0x100000000 - k) % k:
                self.pos = pos
                return m >> 32

    def _refill(self) -> list[int]:
        rng = self.rng
        self._state = rng.bit_generator.state
        self.buf = rng.integers(0, 2**32, size=self._size, dtype=np.uint32).tolist()
        self._size = min(2 * self._size, BLOCK_WORDS)
        return self.buf

    def settle(self) -> None:
        """Restore the state saved before the current block, redraw the
        words read from it, and drop the rest; later draws start there."""
        if self._state is not None and self.pos < len(self.buf):
            self.rng.bit_generator.state = self._state
            if self.pos:
                self.rng.integers(0, 2**32, size=self.pos, dtype=np.uint32)
        self.buf, self.pos, self._state = [], 0, None


def sample_instances(
    graph: HinGraph,
    user: NodeRef,
    mp: MetaPath,
    n: int = 10,
    max_len: Optional[int] = None,
    *,
    rng: np.random.Generator | Words,
) -> np.ndarray:
    """Sample up to `n` walks from `user` conforming to `mp`, as the
    (walks, len(mp)) array of their node indices; column i holds nodes of
    type ``mp.pattern[i]``.

    Each hop picks uniformly among the neighbors reachable under the next
    relation in the pattern: in walk order, the hops draw what one
    ``rng.integers(degree)`` each would; a hop from a node with one
    neighbor draws nothing. `rng` is a Generator, which is left where
    those calls would leave it, or an open `Words` source of one, which
    its opener settles. Dead-end walks are discarded and retried up to
    RETRY_FACTOR * n times; fewer than `n` instances come back when the
    budget runs out. Duplicate walks are kept (the bag is a sampling
    budget, not a set).

    `max_len` is only checked against the pattern length: a walk always
    has its pattern's length, so it changes no walk.
    """
    if user.type != NodeType.USER:
        raise ValueError(f"walks must start at a user, got {user!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_len is not None and max_len < len(mp.pattern):
        raise ValueError(
            f"max walk length {max_len} shorter than pattern length {len(mp.pattern)}"
        )

    hops = graph.row_lookups(mp.type_keys, zip(mp.pattern, mp.relations))
    words = rng if isinstance(rng, Words) else Words(rng, n * len(hops))
    buf, i = words.buf, words.pos
    end = len(buf)
    flat: list[int] = []  # the walks, concatenated
    append = flat.append
    done = retries = 0
    budget = RETRY_FACTOR * n
    try:
        while done < n:
            mark = len(flat)
            node = user.index
            append(node)
            for hop in hops:
                nbrs = hop(node)
                if not nbrs:
                    break
                k = len(nbrs)
                if k == 1:
                    node = nbrs[0]
                elif i < end and (m := buf[i] * k) & 0xFFFFFFFF >= k:
                    i += 1
                    node = nbrs[m >> 32]
                else:
                    words.pos = i
                    node = nbrs[words.bounded(k)]
                    buf, i = words.buf, words.pos
                    end = len(buf)
                append(node)
            else:
                done += 1
                continue
            del flat[mark:]
            retries += 1
            if retries >= budget:
                break
        words.pos = i
    finally:
        if words is not rng:
            words.settle()
    walks = np.array(flat, dtype=np.int64).reshape(-1, len(mp.pattern))
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
        # the hops of one user's walks, one of each meta-path
        self._hops = sum(len(mp.relations) for mp in self.metapaths)

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
        """The bags of every user of `users`, in order, walked from one
        `Words` source of `rng`, which is settled before this returns or
        raises."""
        corpus = cls(metapaths)
        words = Words(rng, n * corpus._hops)
        try:
            for user in users:
                corpus.resample_user(graph, user, n=n, max_len=max_len, rng=words)
        finally:
            words.settle()
        return corpus

    def resample_user(
        self,
        graph: HinGraph,
        user: NodeRef,
        n: int = 10,
        max_len: Optional[int] = None,
        *,
        rng: np.random.Generator | Words,
    ) -> None:
        """Re-walk all of one user's bags against the current graph. `rng`
        is a Generator, for which one `Words` source is opened and settled,
        or an open source (see `sample_instances`)."""
        self._kept.pop(user, None)
        words = rng if isinstance(rng, Words) else Words(rng, n * self._hops)
        try:
            for mp in self.metapaths:
                self._bags[(user, mp.id)] = sample_instances(
                    graph, user, mp, n=n, max_len=max_len, rng=words
                )
        finally:
            if words is not rng:
                words.settle()

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
