"""The clique number of a whole graph.

The sweeps and the report read omega off the colourer's state; the sweep
calls this only when the colourer failed on a graph.
"""

from __future__ import annotations

from . import _kernels as K
from .graph import Graph


def omega(g: Graph) -> int:
    """Maximum clique size; 0 for the empty graph."""
    return K.clique_number(g.adj, g.n, g.full_mask())
