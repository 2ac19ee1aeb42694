"""Lightweight graph substrate.

The paper's maximum-coverage and influence-maximization experiments run on
social graphs. We implement our own adjacency-list graph (rather than
depending on a graph library) because the solvers only need a handful of
operations — out-neighbour iteration, transpose, degree — and the influence
subsystem benefits from the compact CSR-style layout exposed by
:meth:`Graph.out_adjacency`.
"""

from repro.graphs.graph import Graph, GraphDelta
from repro.graphs.generators import (
    erdos_renyi,
    gaussian_points,
    preferential_attachment,
    stochastic_block_model,
)
from repro.graphs.io import read_edge_list, write_edge_list

__all__ = [
    "Graph",
    "GraphDelta",
    "erdos_renyi",
    "gaussian_points",
    "preferential_attachment",
    "read_edge_list",
    "stochastic_block_model",
    "write_edge_list",
]
