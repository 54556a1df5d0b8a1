"""Mutation operators.

Small random changes to a chromosome.  ``JiggleMutation`` performs
radius-bounded relocations (local refinement); ``ResetMutation`` teleports
routers anywhere (exploration); ``GeneSwapMutation`` exchanges the
positions of two routers — the GA analogue of the paper's swap movement.
``CompositeMutation`` mixes them.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Sequence

import numpy as np

from repro.core.geometry import Point, Rect
from repro.core.solution import Placement

__all__ = [
    "MutationOperator",
    "JiggleMutation",
    "ResetMutation",
    "GeneSwapMutation",
    "TowardCentroidMutation",
    "CompositeMutation",
]


class MutationOperator(abc.ABC):
    """Perturbs a placement into a new valid placement."""

    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def mutate(self, placement: Placement, rng: np.random.Generator) -> Placement:
        """A mutated copy (the input placement is never modified)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class JiggleMutation(MutationOperator):
    """Relocate routers within a small Chebyshev radius.

    Each router mutates independently with probability ``per_gene_rate``
    and moves to a random free cell within ``radius`` of its current
    position (falling back to staying put when its neighborhood is
    full).
    """

    name: ClassVar[str] = "jiggle"

    def __init__(self, radius: int = 4, per_gene_rate: float = 0.1) -> None:
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if not 0.0 < per_gene_rate <= 1.0:
            raise ValueError(
                f"per_gene_rate must be in (0, 1], got {per_gene_rate}"
            )
        self.radius = radius
        self.per_gene_rate = per_gene_rate

    def mutate(self, placement: Placement, rng: np.random.Generator) -> Placement:
        grid = placement.grid
        coords = placement.coords.copy()
        occupied = grid.occupancy(coords)
        radius, side = self.radius, 2 * self.radius + 1
        # ``random()`` is ``uniform()`` on [0, 1): the same draw, cheaper.
        draw = rng.random
        for router_id in range(len(coords)):
            if draw() >= self.per_gene_rate:
                continue
            x, y = coords[router_id].tolist()
            occupied[y, x] = False
            window = Rect(x - radius, y - radius, side, side)
            try:
                target = grid.random_free_cell(occupied, rng, within=window)
            except ValueError:
                # Neighborhood completely full: keep the router in place.
                target = Point(x, y)
            occupied[target.y, target.x] = True
            coords[router_id] = target
        return Placement(grid, coords)

    def __repr__(self) -> str:
        return (
            f"JiggleMutation(radius={self.radius}, "
            f"per_gene_rate={self.per_gene_rate})"
        )


class ResetMutation(MutationOperator):
    """Teleport ``count`` random routers to uniform random free cells."""

    name: ClassVar[str] = "reset"

    def __init__(self, count: int = 1) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self.count = count

    def mutate(self, placement: Placement, rng: np.random.Generator) -> Placement:
        grid = placement.grid
        coords = placement.coords.copy()
        occupied = grid.occupancy(coords)
        n_resets = min(self.count, len(coords))
        victims = rng.choice(len(coords), size=n_resets, replace=False)
        for router_id in victims.tolist():
            x, y = coords[router_id].tolist()
            occupied[y, x] = False
            target = grid.random_free_cell(occupied, rng)
            occupied[target.y, target.x] = True
            coords[router_id] = target
        return Placement(grid, coords)

    def __repr__(self) -> str:
        return f"ResetMutation(count={self.count})"


class GeneSwapMutation(MutationOperator):
    """Exchange the cells of two random routers.

    Positions are preserved; only the radii move — useful when strong
    routers should sit where the topology needs reach (the GA-internal
    mirror of Algorithm 3's literal swap).
    """

    name: ClassVar[str] = "gene-swap"

    def mutate(self, placement: Placement, rng: np.random.Generator) -> Placement:
        n = len(placement)
        if n < 2:
            return placement
        a, b = rng.choice(n, size=2, replace=False)
        return placement.with_swap(int(a), int(b))


class TowardCentroidMutation(MutationOperator):
    """Pull a random router a step towards the fleet's centroid.

    The directed-mutation idea from the authors' follow-up WMN-GA work:
    network connectivity improves when routers compact, so one router
    moves a random fraction of the way towards the placement's centre of
    mass (with a little jitter to avoid pile-ups).  Selection still
    decides whether the compaction actually helped.
    """

    name: ClassVar[str] = "toward-centroid"

    def __init__(self, max_step_fraction: float = 0.5, jitter: int = 2) -> None:
        if not 0.0 < max_step_fraction <= 1.0:
            raise ValueError(
                f"max_step_fraction must be in (0, 1], got {max_step_fraction}"
            )
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        self.max_step_fraction = max_step_fraction
        self.jitter = jitter

    def mutate(self, placement: Placement, rng: np.random.Generator) -> Placement:
        grid = placement.grid
        positions = placement.positions_array()
        centroid = positions.mean(axis=0)
        router_id = int(rng.integers(0, len(placement)))
        x, y = placement.coords[router_id].tolist()
        fraction = rng.uniform(0.0, self.max_step_fraction)
        target_x = x + fraction * (centroid[0] - x)
        target_y = y + fraction * (centroid[1] - y)
        if self.jitter:
            target_x += rng.integers(-self.jitter, self.jitter + 1)
            target_y += rng.integers(-self.jitter, self.jitter + 1)
        target = grid.bounds.clamped(Point(int(round(target_x)), int(round(target_y))))
        if target == (x, y):
            return placement
        occupied = grid.occupancy(placement.coords)
        occupied[y, x] = False
        if occupied[target.y, target.x]:
            # Land on the nearest free spot around the intended target.
            window = Rect(target.x - 2, target.y - 2, 5, 5)
            try:
                target = grid.random_free_cell(occupied, rng, within=window)
            except ValueError:
                return placement
            if target == (x, y):
                return placement
        coords = placement.coords.copy()
        coords[router_id] = target
        return Placement(grid, coords)

    def __repr__(self) -> str:
        return (
            f"TowardCentroidMutation(max_step_fraction={self.max_step_fraction}, "
            f"jitter={self.jitter})"
        )


class CompositeMutation(MutationOperator):
    """Apply one of several operators, drawn by weight."""

    name: ClassVar[str] = "composite"

    def __init__(
        self,
        operators: Sequence[MutationOperator],
        weights: Sequence[float] | None = None,
    ) -> None:
        if not operators:
            raise ValueError("CompositeMutation needs at least one operator")
        self.operators = list(operators)
        if weights is None:
            weights = [1.0] * len(self.operators)
        if len(weights) != len(self.operators):
            raise ValueError(
                f"{len(weights)} weights for {len(self.operators)} operators"
            )
        if any(weight < 0 for weight in weights) or sum(weights) <= 0:
            raise ValueError("weights must be non-negative and not all zero")
        total = float(sum(weights))
        self._probabilities = np.array([weight / total for weight in weights])

    @property
    def probabilities(self) -> np.ndarray:
        """Normalized operator selection probabilities."""
        return self._probabilities

    def mutate(self, placement: Placement, rng: np.random.Generator) -> Placement:
        index = int(rng.choice(len(self.operators), p=self._probabilities))
        return self.operators[index].mutate(placement, rng)

    def __repr__(self) -> str:
        inner = ", ".join(repr(op) for op in self.operators)
        return f"CompositeMutation([{inner}])"
