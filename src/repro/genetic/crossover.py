"""Crossover operators.

A chromosome is the vector of router cells, so crossover mixes the
positions two parents assign to each router.  The operators build each
child as an ``(N, 2)`` cell array from the parents' arrays.  A child can
inherit colliding cells (two routers on one cell): a linear-cell-index
check finds those children, and only they go through
:func:`~repro.adhoc.base.resolve_collisions`, which nudges the
collisions apart.  A child without a collision becomes a placement
directly and draws no random numbers.
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

from repro.adhoc.base import resolve_collisions
from repro.core.geometry import Point, Rect
from repro.core.grid import GridArea
from repro.core.solution import Placement, has_shared_cells

__all__ = [
    "CrossoverOperator",
    "UniformCrossover",
    "OnePointCrossover",
    "RegionExchangeCrossover",
]


def _child(grid: GridArea, coords: np.ndarray, rng: np.random.Generator) -> Placement:
    """A placement of ``coords``, with colliding cells nudged apart."""
    if not has_shared_cells(grid, coords):
        return Placement(grid, coords)
    cells = [Point(x, y) for x, y in coords.tolist()]
    return Placement.from_cells(grid, resolve_collisions(grid, cells, rng))


class CrossoverOperator(abc.ABC):
    """Produces two children from two parent placements."""

    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def crossover(
        self,
        parent_a: Placement,
        parent_b: Placement,
        rng: np.random.Generator,
    ) -> tuple[Placement, Placement]:
        """Two valid child placements."""

    def _check_parents(self, parent_a: Placement, parent_b: Placement) -> None:
        if len(parent_a) != len(parent_b):
            raise ValueError(
                f"parents place {len(parent_a)} and {len(parent_b)} routers; "
                "crossover needs equal-length chromosomes"
            )
        if parent_a.grid != parent_b.grid:
            raise ValueError("parents live on different grids")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class UniformCrossover(CrossoverOperator):
    """Each gene comes from either parent with probability ``mix_rate``.

    Child 1 takes parent A's cell for router ``i`` unless a coin flip
    says otherwise; child 2 takes the complementary choices.
    """

    name: ClassVar[str] = "uniform"

    def __init__(self, mix_rate: float = 0.5) -> None:
        if not 0.0 <= mix_rate <= 1.0:
            raise ValueError(f"mix_rate must be in [0, 1], got {mix_rate}")
        self.mix_rate = mix_rate

    def crossover(
        self,
        parent_a: Placement,
        parent_b: Placement,
        rng: np.random.Generator,
    ) -> tuple[Placement, Placement]:
        self._check_parents(parent_a, parent_b)
        take_b = (rng.uniform(size=len(parent_a)) < self.mix_rate)[:, np.newaxis]
        a, b = parent_a.coords, parent_b.coords
        child1 = _child(parent_a.grid, np.where(take_b, b, a), rng)
        return child1, _child(parent_a.grid, np.where(take_b, a, b), rng)

    def __repr__(self) -> str:
        return f"UniformCrossover(mix_rate={self.mix_rate})"


class OnePointCrossover(CrossoverOperator):
    """Classic single cut point over the router index order."""

    name: ClassVar[str] = "one-point"

    def crossover(
        self,
        parent_a: Placement,
        parent_b: Placement,
        rng: np.random.Generator,
    ) -> tuple[Placement, Placement]:
        self._check_parents(parent_a, parent_b)
        n = len(parent_a)
        cut = int(rng.integers(1, n)) if n > 1 else 0
        a, b = parent_a.coords, parent_b.coords
        child1 = _child(parent_a.grid, np.concatenate([a[:cut], b[cut:]]), rng)
        return child1, _child(
            parent_a.grid, np.concatenate([b[:cut], a[cut:]]), rng
        )


def _inside(coords: np.ndarray, region: Rect) -> np.ndarray:
    """``(N, 1)`` mask of the rows of ``coords`` inside ``region``."""
    xs, ys = coords[:, 0], coords[:, 1]
    inside = (xs >= region.x0) & (xs < region.x1) & (ys >= region.y0) & (ys < region.y1)
    return inside[:, np.newaxis]


class RegionExchangeCrossover(CrossoverOperator):
    """Exchange the routers inside a random rectangle of the grid.

    Child 1 keeps parent A's assignment for routers that parent A placed
    inside the rectangle and takes parent B's genes elsewhere (child 2 is
    the mirror image).  This is a *spatial* crossover: it trades whole
    sub-topologies (a corner cluster, a diagonal segment) between
    parents, which suits a problem whose fitness is spatial.
    """

    name: ClassVar[str] = "region-exchange"

    def __init__(
        self, min_fraction: float = 0.25, max_fraction: float = 0.75
    ) -> None:
        if not 0.0 < min_fraction <= max_fraction <= 1.0:
            raise ValueError(
                "require 0 < min_fraction <= max_fraction <= 1, got "
                f"{min_fraction}, {max_fraction}"
            )
        self.min_fraction = min_fraction
        self.max_fraction = max_fraction

    def _random_region(self, grid: GridArea, rng: np.random.Generator) -> Rect:
        width = max(
            1,
            int(
                rng.uniform(self.min_fraction, self.max_fraction) * grid.width
            ),
        )
        height = max(
            1,
            int(
                rng.uniform(self.min_fraction, self.max_fraction) * grid.height
            ),
        )
        x0 = int(rng.integers(0, grid.width - width + 1))
        y0 = int(rng.integers(0, grid.height - height + 1))
        return Rect(x0, y0, width, height)

    def crossover(
        self,
        parent_a: Placement,
        parent_b: Placement,
        rng: np.random.Generator,
    ) -> tuple[Placement, Placement]:
        self._check_parents(parent_a, parent_b)
        region = self._random_region(parent_a.grid, rng)
        a, b = parent_a.coords, parent_b.coords
        child1 = _child(parent_a.grid, np.where(_inside(a, region), a, b), rng)
        return child1, _child(
            parent_a.grid, np.where(_inside(b, region), b, a), rng
        )

    def __repr__(self) -> str:
        return (
            f"RegionExchangeCrossover(min_fraction={self.min_fraction}, "
            f"max_fraction={self.max_fraction})"
        )
