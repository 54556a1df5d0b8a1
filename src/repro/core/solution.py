"""Placement solutions.

A solution to the mesh router placement problem assigns every router of
the fleet to a distinct grid cell.  :class:`Placement` is that
assignment.  It is an immutable value object: search operators derive new
placements via :meth:`with_move` and :meth:`with_swap` instead of
mutating in place, which keeps traces, populations and tabu lists safe to
share.

The assignment is stored as a read-only ``(N, 2)`` int64 array of
``(x, y)`` cells (:attr:`Placement.coords`), which the GA operators and
the engines work on directly.  The :class:`~repro.core.geometry.Point`
view (:attr:`Placement.cells`) and the occupied-cell set are built on
first access and cached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.geometry import Point, Rect
from repro.core.grid import GridArea

__all__ = ["Placement", "has_shared_cells"]


def has_shared_cells(grid: GridArea, coords: np.ndarray) -> bool:
    """Whether two rows of an ``(N, 2)`` array of in-grid cells coincide.

    Compares row-major linear cell indices, so each cell is one integer.
    """
    index = np.sort(coords[:, 1] * grid.width + coords[:, 0])
    return bool((index[1:] == index[:-1]).any())


@dataclass(frozen=True, eq=False)
class Placement:
    """An assignment of router ids to distinct grid cells.

    ``coords[i]`` (and ``cells[i]``) is the position of router ``i``.
    The constructor takes any ``(N, 2)`` integer array-like, stores a
    read-only int64 copy and enforces the two structural invariants of
    the problem: every cell is inside the grid and no two routers share
    a cell.
    """

    grid: GridArea
    coords: np.ndarray = field(repr=False)
    _cells: "tuple[Point, ...] | None" = field(init=False, repr=False, default=None)
    _occupied: "frozenset[Point] | None" = field(
        init=False, repr=False, default=None
    )
    _positions: "np.ndarray | None" = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        coords = np.array(self.coords, dtype=np.int64)
        if coords.size == 0:
            raise ValueError("a placement must position at least one router")
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(
                f"placement coordinates must have shape (N, 2), got {coords.shape}"
            )
        grid = self.grid
        # Negative coordinates wrap to huge unsigned values, so a single
        # unsigned comparison checks both bounds of both axes.
        outside = coords.view(np.uint64) >= np.array(
            (grid.width, grid.height), dtype=np.uint64
        )
        if outside.any():
            first = int(outside.any(axis=1).argmax())
            grid.require_inside(Point(*coords[first].tolist()))
        if has_shared_cells(grid, coords):
            raise ValueError("placement has two routers on the same cell")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_cells(cls, grid: GridArea, cells: Sequence[Point]) -> "Placement":
        """Build a placement from an ordered sequence of cells."""
        cells = list(cells)
        flat = np.fromiter(itertools.chain.from_iterable(cells), dtype=np.int64)
        if flat.size != 2 * len(cells):
            raise ValueError("every cell must be an (x, y) pair")
        return cls(grid, flat.reshape(len(cells), 2))

    @classmethod
    def random(
        cls, grid: GridArea, count: int, rng: np.random.Generator
    ) -> "Placement":
        """Uniformly random placement of ``count`` routers."""
        return cls.from_cells(grid, grid.sample_distinct_cells(count, rng))

    # ------------------------------------------------------------------
    # Value semantics (equal placements: same grid, same cells in order)
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.coords, other.coords)

    def __hash__(self) -> int:
        # The frozen-dataclass hash of the (grid, cells) value; built from
        # ints only, so it is not salted per process.
        return hash((self.grid, self.cells))  # repro-lint: disable=RL001

    def __repr__(self) -> str:
        return f"Placement(grid={self.grid!r}, cells={self.cells!r})"

    def __getstate__(self) -> tuple:
        # The lazy views are rebuilt on demand after unpickling.
        return self.grid, self.coords

    def __setstate__(self, state: tuple) -> None:
        grid, coords = state
        coords.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "coords", coords)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.cells)

    def __getitem__(self, router_id: int) -> Point:
        return self.cells[router_id]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def cells(self) -> tuple[Point, ...]:
        """Router cells in id order (built from :attr:`coords` on first use)."""
        cells = self._cells
        if cells is None:
            cells = tuple([Point(x, y) for x, y in self.coords.tolist()])
            object.__setattr__(self, "_cells", cells)
        return cells

    @property
    def occupied(self) -> frozenset[Point]:
        """The set of occupied cells (built on first use)."""
        occupied = self._occupied
        if occupied is None:
            occupied = frozenset(self.cells)
            object.__setattr__(self, "_occupied", occupied)
        return occupied

    def is_free(self, cell: Point) -> bool:
        """Whether ``cell`` is inside the grid and not occupied."""
        return self.grid.contains(cell) and cell not in self.occupied

    def positions_array(self) -> np.ndarray:
        """``(N, 2)`` float array of router coordinates (id order).

        Computed lazily and cached (the placement is immutable); the
        array is read-only because network, coverage and density all
        share it.
        """
        if self._positions is None:
            positions = self.coords.astype(float)
            positions.setflags(write=False)
            object.__setattr__(self, "_positions", positions)
        return self._positions

    def routers_in(self, rect: Rect) -> list[int]:
        """Ids of routers whose cell lies inside ``rect``."""
        xs, ys = self.coords[:, 0], self.coords[:, 1]
        inside = (xs >= rect.x0) & (xs < rect.x1) & (ys >= rect.y0) & (ys < rect.y1)
        return np.flatnonzero(inside).tolist()

    def as_mapping(self) -> Mapping[int, Point]:
        """Router id -> cell dictionary view (a fresh dict)."""
        return dict(enumerate(self.cells))

    # ------------------------------------------------------------------
    # Derivation (the local moves build on these)
    # ------------------------------------------------------------------

    def with_move(self, router_id: int, cell: Point) -> "Placement":
        """A new placement with ``router_id`` relocated to ``cell``.

        Raises ``ValueError`` when ``cell`` is occupied by another router
        or outside the grid.
        """
        self._require_router(router_id)
        if cell == self.cells[router_id]:
            return self
        if cell in self.occupied:
            raise ValueError(f"cell {tuple(cell)} is already occupied")
        coords = self.coords.copy()
        coords[router_id] = cell
        derived = Placement(self.grid, coords)
        # Seed the child's caches from ours: one row update instead of
        # rebuilding every Point and float row (hot in search loops).
        cells = list(self._cells)
        cells[router_id] = Point(*coords[router_id].tolist())
        object.__setattr__(derived, "_cells", tuple(cells))
        if self._positions is not None:
            positions = self._positions.copy()
            positions[router_id] = coords[router_id]
            positions.setflags(write=False)
            object.__setattr__(derived, "_positions", positions)
        return derived

    def with_swap(self, router_a: int, router_b: int) -> "Placement":
        """A new placement with the positions of two routers exchanged.

        This is the literal "exchange the placement of two routers" of
        Algorithm 3: the occupied-cell multiset is unchanged, only the
        assignment of router hardware to positions changes.
        """
        self._require_router(router_a)
        self._require_router(router_b)
        if router_a == router_b:
            return self
        pair, swapped = [router_a, router_b], [router_b, router_a]
        coords = self.coords.copy()
        coords[pair] = coords[swapped]
        derived = Placement(self.grid, coords)
        if self._cells is not None:
            cells = list(self._cells)
            cells[router_a], cells[router_b] = cells[router_b], cells[router_a]
            object.__setattr__(derived, "_cells", tuple(cells))
        if self._positions is not None:
            positions = self._positions.copy()
            positions[pair] = positions[swapped]
            positions.setflags(write=False)
            object.__setattr__(derived, "_positions", positions)
        return derived

    def _require_router(self, router_id: int) -> None:
        if not 0 <= router_id < len(self.coords):
            raise ValueError(
                f"router id {router_id} out of range for fleet of {len(self.coords)}"
            )
