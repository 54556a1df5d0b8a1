"""Framework for the ad hoc placement methods (paper Section 3).

Ad hoc methods "are simple methods that explore different possible
placement topologies", useful both stand-alone and as initializers of
evolutionary algorithms.  The paper notes that "in all considered
methods, there is a pattern in placement of mesh router nodes, meaning
that *most* of the node placements follow the pattern" — modeled here by
``pattern_fraction``: that share of the fleet is placed by the method's
pattern, the remainder uniformly at random.

:class:`PatternedAdHocMethod` implements the shared machinery (pattern /
filler split, collision nudging, bounds enforcement); concrete methods
only produce their pattern cells.  HotSpot, which must additionally
assign *specific* routers (by power) to specific zones, overrides
:meth:`AdHocMethod.place` directly.
"""

from __future__ import annotations

import abc
import functools
from typing import ClassVar, Iterable, Sequence

import numpy as np

from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.solution import Placement, has_shared_cells

__all__ = [
    "AdHocMethod",
    "PatternedAdHocMethod",
    "MethodNotApplicableError",
    "nudge_to_free",
    "resolve_collisions",
]


class MethodNotApplicableError(ValueError):
    """Raised when a method's applicability conditions are violated.

    Several ad hoc methods come with conditions on the grid ("height and
    width must have similar values" for Diag/Cross); in strict mode these
    raise instead of silently producing a degenerate pattern.
    """


@functools.lru_cache(maxsize=None)
def _ring_offsets(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """``(dx, dy)`` of the Chebyshev ring at ``radius``, in scan order.

    The top and bottom rows first (``dx`` ascending, ``dy = -r`` before
    ``dy = +r``), then the left and right columns without the corners
    (``dy`` ascending, ``dx = -r`` before ``dx = +r``).
    """
    span = np.arange(-radius, radius + 1)
    inner = np.arange(-radius + 1, radius)
    sides = np.array([-radius, radius])
    dx = np.concatenate([np.repeat(span, 2), np.tile(sides, len(inner))])
    dy = np.concatenate([np.tile(sides, len(span)), np.repeat(inner, 2)])
    dx.setflags(write=False)  # cached and shared by every call
    dy.setflags(write=False)
    return dx, dy


def nudge_to_free(
    grid: GridArea,
    cell: Point,
    taken: "set[Point] | np.ndarray",
    rng: np.random.Generator,
    max_radius: int | None = None,
) -> Point:
    """The nearest free cell to ``cell`` (Chebyshev rings, random ties).

    Pattern anchors of different routers can coincide (short diagonals,
    small corner zones); the colliding router is nudged to the closest
    free cell so the pattern stays visually intact.  ``taken`` is a set
    of cells or a :meth:`~repro.core.grid.GridArea.occupancy` bitmap.
    """
    start = grid.bounds.clamped(cell)
    bitmap = taken if isinstance(taken, np.ndarray) else grid.occupancy(taken)
    if not bitmap[start.y, start.x]:
        return start
    limit = max_radius if max_radius is not None else max(grid.width, grid.height)
    for radius in range(1, limit + 1):
        dx, dy = _ring_offsets(radius)
        xs = start.x + dx
        ys = start.y + dy
        inside = (xs >= 0) & (xs < grid.width) & (ys >= 0) & (ys < grid.height)
        xs, ys = xs[inside], ys[inside]
        free = np.flatnonzero(~bitmap[ys, xs])
        if free.size:
            pick = int(free[int(rng.integers(0, free.size))])
            return Point(int(xs[pick]), int(ys[pick]))
    raise ValueError("no free cell available on the grid")


def resolve_collisions(
    grid: GridArea,
    cells: Iterable[Point],
    rng: np.random.Generator,
    taken: Sequence[Point] = (),
) -> list[Point]:
    """Make ``cells`` distinct (and distinct from ``taken``) by nudging.

    Cells are placed in order, each nudged to the nearest free cell of
    the grid.  When every cell is already inside the grid, distinct and
    clear of ``taken``, nothing moves and no random number is drawn.
    """
    cells = list(cells)
    occupied = grid.occupancy(taken)
    coords = np.array(cells, dtype=np.int64).reshape(-1, 2)
    xs, ys = coords[:, 0], coords[:, 1]
    if (
        ((xs >= 0) & (xs < grid.width) & (ys >= 0) & (ys < grid.height)).all()
        and not occupied[ys, xs].any()
        and not has_shared_cells(grid, coords)
    ):
        return cells
    resolved: list[Point] = []
    for cell in cells:
        placed = nudge_to_free(grid, cell, occupied, rng)
        occupied[placed.y, placed.x] = True
        resolved.append(placed)
    return resolved


class AdHocMethod(abc.ABC):
    """A placement heuristic: problem instance -> full placement."""

    #: Registry name of the method (e.g. ``"hotspot"``).
    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def place(self, problem: ProblemInstance, rng: np.random.Generator) -> Placement:
        """Produce a placement of the whole fleet."""

    def is_applicable(self, grid: GridArea) -> bool:
        """Whether the method's grid-shape conditions hold (default: yes)."""
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PatternedAdHocMethod(AdHocMethod):
    """Shared engine for the pattern-based methods.

    Subclasses yield ``count`` pattern cells; this base class nudges
    collisions apart, places the remaining ``(1 - pattern_fraction)``
    share of the fleet uniformly at random and assembles the final
    :class:`Placement`.
    """

    def __init__(self, pattern_fraction: float = 0.9, strict: bool = False) -> None:
        if not 0.0 < pattern_fraction <= 1.0:
            raise ValueError(
                f"pattern_fraction must be in (0, 1], got {pattern_fraction}"
            )
        self.pattern_fraction = pattern_fraction
        self.strict = strict

    @abc.abstractmethod
    def pattern_cells(
        self, problem: ProblemInstance, count: int, rng: np.random.Generator
    ) -> list[Point]:
        """``count`` cells following the method's topology pattern.

        Cells may collide or leave the grid; the caller cleans up.
        """

    def place(self, problem: ProblemInstance, rng: np.random.Generator) -> Placement:
        if self.strict and not self.is_applicable(problem.grid):
            raise MethodNotApplicableError(
                f"{self.name} placement is not applicable to a "
                f"{problem.grid.width}x{problem.grid.height} grid"
            )
        n = problem.n_routers
        n_pattern = max(1, int(round(self.pattern_fraction * n)))
        n_pattern = min(n, n_pattern)
        raw = self.pattern_cells(problem, n_pattern, rng)
        if len(raw) != n_pattern:
            raise ValueError(
                f"{type(self).__name__} produced {len(raw)} pattern cells, "
                f"expected {n_pattern}"
            )
        cells = resolve_collisions(problem.grid, raw, rng)
        n_filler = n - n_pattern
        if n_filler > 0:
            cells.extend(
                problem.grid.sample_distinct_cells(n_filler, rng, occupied=cells)
            )
        return Placement.from_cells(problem.grid, cells)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(pattern_fraction={self.pattern_fraction}, "
            f"strict={self.strict})"
        )
