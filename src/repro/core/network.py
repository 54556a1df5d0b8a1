"""Building the router communication graph from a placement.

Given a placement and the fleet's radii, this module computes which
router pairs share a wireless link under the instance's
:class:`~repro.core.radio.LinkRule`.  Distances and link ranges are
compared on squared values where possible and computed with vectorized
numpy broadcasting: the adjacency computation sits on the hot path of
every fitness evaluation in the GA and the neighborhood search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.connectivity import (
    ComponentStructure,
    connected_components_from_arrays,
)
from repro.core.problem import ProblemInstance
from repro.core.radio import LinkRule
from repro.core.solution import Placement

__all__ = ["adjacency_matrix", "edge_array", "RouterNetwork"]


def adjacency_matrix(
    positions: np.ndarray, radii: np.ndarray, link_rule: LinkRule
) -> np.ndarray:
    """Boolean ``(N, N)`` adjacency matrix of the router graph.

    ``positions`` is ``(N, 2)``; ``radii`` is ``(N,)``.  The diagonal is
    ``False`` (no self loops); the matrix is symmetric for every link
    rule (all three predicates are symmetric in ``i, j``).
    """
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must be (N, 2), got {positions.shape}")
    n = positions.shape[0]
    if radii.shape != (n,):
        raise ValueError(
            f"radii shape {radii.shape} does not match {n} positions"
        )
    # Per-axis broadcasting avoids an (N, N, 2) delta tensor on the
    # fitness-evaluation hot path.
    x = positions[:, 0]
    y = positions[:, 1]
    dx = x[:, np.newaxis] - x[np.newaxis, :]
    dy = y[:, np.newaxis] - y[np.newaxis, :]
    squared_distance = dx * dx + dy * dy
    link_range = link_rule.range_matrix(radii)
    adjacency = squared_distance <= link_range * link_range
    np.fill_diagonal(adjacency, False)
    return adjacency


def edge_array(adjacency: np.ndarray) -> np.ndarray:
    """Upper-triangular edges ``(i < j)`` as an ``(E, 2)`` integer array.

    This is the hot-path representation: the component engine consumes
    the endpoint columns directly, so no per-edge Python tuples are
    materialized.
    """
    rows, cols = np.nonzero(adjacency)
    keep = rows < cols
    return np.column_stack((rows[keep], cols[keep])).astype(np.intp, copy=False)


@dataclass(frozen=True)
class RouterNetwork:
    """The communication graph induced by a placement.

    A snapshot object: adjacency, edge list and component structure are
    computed once and then shared by the metric calculators.
    """

    adjacency: np.ndarray
    components: ComponentStructure

    @classmethod
    def build(cls, problem: ProblemInstance, placement: Placement) -> "RouterNetwork":
        """Compute the network of ``placement`` under ``problem``'s rules."""
        if len(placement) != problem.n_routers:
            raise ValueError(
                f"placement positions {len(placement)} routers but the fleet "
                f"has {problem.n_routers}"
            )
        adjacency = adjacency_matrix(
            placement.positions_array(), problem.fleet.radii, problem.link_rule
        )
        edges = edge_array(adjacency)
        components = connected_components_from_arrays(
            problem.n_routers, edges[:, 0], edges[:, 1]
        )
        return cls(adjacency=adjacency, components=components)

    @property
    def n_routers(self) -> int:
        """Number of routers (graph nodes)."""
        return int(self.adjacency.shape[0])

    @property
    def n_links(self) -> int:
        """Number of wireless links (undirected edges)."""
        # The adjacency matrix is symmetric with a False diagonal.
        return int(np.count_nonzero(self.adjacency)) // 2

    @property
    def giant_size(self) -> int:
        """Size of the giant component — the paper's connectivity metric."""
        return self.components.giant_size

    def giant_mask(self) -> np.ndarray:
        """Boolean membership mask of the giant component."""
        return self.components.giant_mask()

    def degrees(self) -> np.ndarray:
        """Degree of every router."""
        return self.adjacency.sum(axis=1).astype(int)

    def mean_degree(self) -> float:
        """Average router degree."""
        if self.n_routers == 0:
            return 0.0
        return float(self.degrees().mean())

    def isolated_routers(self) -> list[int]:
        """Routers with no wireless link at all."""
        return [int(i) for i in np.flatnonzero(self.degrees() == 0)]
