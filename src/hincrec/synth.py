"""Synthetic MOOC interaction graphs with planted preference clusters.

Users and concepts are partitioned into clusters; courses cover one
cluster's concepts and videos teach subsets of them, so the built-in
meta-paths connect same-cluster users. Clicks mix in-cluster and
cross-cluster draws, giving a learnable planted signal.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .data import Click, Dataset, IdMap
from .graph import HinGraph, NodeRef, NodeType, Relation
from .metapath import bounded_draws

TS_START = 1_500_000_000
TS_SPAN = 200_000_000
P_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))  # rng.choice's tolerance


class ConfigInvalid(Exception):
    """Synthetic-generator configuration violates its invariants."""


@dataclass
class SynthConfig:
    users: int = 200
    concepts: int = 50
    clusters: int = 5
    courses: Optional[int] = None   # default: 2 per cluster
    videos: Optional[int] = None    # default: 2 per course
    p_in: float = 0.9
    p_out: float = 0.02
    clicks_per_user: int = 20
    seed: int = 7

    def resolved(self) -> "SynthConfig":
        courses = self.courses if self.courses is not None else 2 * self.clusters
        videos = self.videos if self.videos is not None else 2 * courses
        cfg = replace(self, courses=courses, videos=videos)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.clusters < 1:
            raise ConfigInvalid("clusters must be >= 1")
        for name in ("users", "concepts", "courses", "videos"):
            value = getattr(self, name)
            if value < self.clusters:
                raise ConfigInvalid(f"{name} ({value}) must be >= clusters ({self.clusters})")
        if not 0.0 < self.p_in <= 1.0 or not 0.0 <= self.p_out <= 1.0:
            raise ConfigInvalid("click probabilities must be within (0, 1]")
        if self.p_in <= self.p_out:
            raise ConfigInvalid("p_in must exceed p_out")
        if self.clicks_per_user < 1:
            raise ConfigInvalid("clicks_per_user must be >= 1")


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Deterministic dataset for `cfg` (a pure function of the config), its
    clicks in the log order that `save_dataset` writes."""
    cfg = cfg.resolved()
    rng = np.random.default_rng(cfg.seed)
    graph = HinGraph()
    ids = IdMap()

    def declare(prefix: str, node_type: NodeType, count: int) -> list[NodeRef]:
        refs = graph.add_nodes(node_type, count)
        for ref in refs:
            ids.add(f"{prefix}{ref.index}", ref)
        return refs

    users = declare("u", NodeType.USER, cfg.users)
    courses = declare("c", NodeType.COURSE, cfg.courses)
    videos = declare("v", NodeType.VIDEO, cfg.videos)
    concepts = declare("k", NodeType.CONCEPT, cfg.concepts)

    cluster_of = lambda ref: ref.index % cfg.clusters
    concepts_in = [
        [k for k in concepts if cluster_of(k) == c] for c in range(cfg.clusters)
    ]
    courses_in = [
        [c for c in courses if cluster_of(c) == cl] for cl in range(cfg.clusters)
    ]

    # Courses cover every concept of their cluster; videos sit inside one
    # course (sometimes two of the same cluster) and teach a concept subset.
    for course in courses:
        for concept in concepts_in[cluster_of(course)]:
            graph.add_edge(course, concept, Relation.COVERS)
    for video in videos:
        home = courses[video.index % cfg.courses]
        graph.add_edge(home, video, Relation.CONTAINS)
        same_cluster = courses_in[cluster_of(home)]
        if len(same_cluster) > 1 and rng.random() < 0.5:
            other = same_cluster[int(rng.integers(len(same_cluster)))]
            if other != home:
                graph.add_edge(other, video, Relation.CONTAINS)
        pool = concepts_in[cluster_of(home)]
        n_teach = max(1, len(pool) // 2)
        for idx in rng.choice(len(pool), size=n_teach, replace=False):
            graph.add_edge(video, pool[int(idx)], Relation.TEACHES)

    # Users enroll in two same-cluster courses and watch one video of each.
    for user in users:
        own = courses_in[cluster_of(user)]
        picks = [own[int(i)] for i in rng.choice(len(own), size=min(2, len(own)), replace=False)]
        for course in picks:
            graph.add_edge(user, course, Relation.LEARN)
            course_videos = graph.neighbors(course, Relation.CONTAINS)
            if course_videos:
                video = course_videos[int(rng.integers(len(course_videos)))]
                graph.add_edge(user, video, Relation.WATCH)

    # Clicks: pick a cluster by weight (own p_in, each other p_out), then a
    # uniform concept inside it. The draws are rng.choice(clusters, p=w)'s,
    # one uniform searched in the cdf of w, and two rng.integers calls'.
    clicks: list[Click] = []
    weights = np.full(cfg.clusters, cfg.p_out)
    draw = bounded_draws(rng)
    for user in users:
        w = weights.copy()
        w[cluster_of(user)] = cfg.p_in
        w /= w.sum()
        if not (np.isfinite(w).all() and (w >= 0).all() and abs(w.sum() - 1) <= P_SUM_ATOL):
            raise ValueError(f"click weights are not probabilities: {w}")
        cdf = w.cumsum()
        cdf = (cdf / cdf[-1]).tolist()
        for _ in range(cfg.clicks_per_user):
            pool = concepts_in[bisect_right(cdf, rng.random())]
            concept = pool[draw(len(pool))] if len(pool) > 1 else pool[0]
            ts = TS_START + draw(TS_SPAN)
            graph.add_edge(user, concept, Relation.CLICK)
            clicks.append(Click(user, concept, ts))
    clicks.sort(key=Click.sort_key)
    return Dataset(graph=graph, clicks=clicks, ids=ids)
