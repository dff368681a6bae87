import numpy as np
import pytest

from hincrec.graph import HinGraph, NodeRef, NodeType, Relation


def make_nodes(graph, spec):
    """spec: dict type -> count. Returns dict type -> list of refs."""
    return {t: graph.add_nodes(t, n) for t, n in spec.items()}


@pytest.fixture
def fan_graph():
    """U0 clicked K0 and K1; U1 clicked both too (two MP1 walks from U0)."""
    g = HinGraph()
    users = g.add_nodes(NodeType.USER, 2)
    concepts = g.add_nodes(NodeType.CONCEPT, 2)
    for u in users:
        for k in concepts:
            g.add_edge(u, k, Relation.CLICK)
    return g, users, concepts


@pytest.fixture
def line_graph():
    """Single MP1 walk: U0 - K0 - U1, nothing else."""
    g = HinGraph()
    users = g.add_nodes(NodeType.USER, 2)
    (k0,) = g.add_nodes(NodeType.CONCEPT, 1)
    g.add_edge(users[0], k0, Relation.CLICK)
    g.add_edge(users[1], k0, Relation.CLICK)
    return g, users, k0


def rng(seed=0):
    return np.random.default_rng(seed)
