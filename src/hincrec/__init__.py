"""Meta-path attention user embeddings + reinforced concept recommendation
over a heterogeneous MOOC interaction graph."""

__version__ = "0.1.0"
