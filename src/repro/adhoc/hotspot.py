"""HotSpot placement (paper Section 3, method 7).

"This method starts by placing the most powerful mesh router in the most
dense zone (in terms of client nodes) of the grid area; next, the second
most powerful mesh router is placed in the second most dense zone, and
so on until all routers are placed. ... this method has a greater
computational cost as compared to other methods due to the computation
of denseness property."

Unlike the pattern methods, HotSpot is *client-aware* and *power-aware*:
the mapping of specific routers to specific cells matters, so it
implements :meth:`place` directly rather than going through
:class:`~repro.adhoc.base.PatternedAdHocMethod`.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro.adhoc.base import AdHocMethod, nudge_to_free
from repro.core.density import DensityMap
from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.solution import Placement

__all__ = ["HotSpotPlacement"]


class HotSpotPlacement(AdHocMethod):
    """Power-ranked routers into client-density-ranked zones.

    Zones are the non-overlapping densest windows of the client density
    map (window size ``window_fraction`` of each grid dimension, or
    explicit ``window_width`` / ``window_height``).  When the grid yields
    fewer distinct zones than routers, assignment cycles through the
    zones, spreading extra routers within each zone.
    """

    name: ClassVar[str] = "hotspot"

    def __init__(
        self,
        window_fraction: float = 0.0625,
        window_width: int | None = None,
        window_height: int | None = None,
        mass_fraction: float = 0.8,
    ) -> None:
        if not 0.0 < window_fraction <= 1.0:
            raise ValueError(
                f"window_fraction must be in (0, 1], got {window_fraction}"
            )
        if window_width is not None and window_width <= 0:
            raise ValueError(f"window_width must be positive, got {window_width}")
        if window_height is not None and window_height <= 0:
            raise ValueError(f"window_height must be positive, got {window_height}")
        if not 0.0 < mass_fraction <= 1.0:
            raise ValueError(
                f"mass_fraction must be in (0, 1], got {mass_fraction}"
            )
        self.window_fraction = window_fraction
        self.window_width = window_width
        self.window_height = window_height
        self.mass_fraction = mass_fraction

    def window_size(self, grid: GridArea) -> tuple[int, int]:
        """Effective ``(width, height)`` of a density window."""
        width = (
            self.window_width
            if self.window_width is not None
            else max(1, int(round(grid.width * self.window_fraction)))
        )
        height = (
            self.window_height
            if self.window_height is not None
            else max(1, int(round(grid.height * self.window_fraction)))
        )
        return min(width, grid.width), min(height, grid.height)

    def place(self, problem: ProblemInstance, rng: np.random.Generator) -> Placement:
        grid = problem.grid
        n = problem.n_routers
        window_width, window_height = self.window_size(grid)
        density = DensityMap.build(
            grid, problem.clients.positions, window_width, window_height
        )
        zones = self._client_zones(density, n, self.mass_fraction)
        quotas = self._zone_quotas(density, zones, n)

        cells: dict[int, Point] = {}
        taken = grid.occupancy(())
        ranked_routers = problem.fleet.by_power_descending()
        rank = 0
        for zone, quota in zip(zones, quotas):
            for slot in range(quota):
                router = ranked_routers[rank]
                rank += 1
                # First router in a zone sits at the zone's heart; extras
                # spread randomly within it.
                anchor = zone.center if slot == 0 else grid.random_cell_in(zone, rng)
                cell = nudge_to_free(grid, anchor, taken, rng)
                taken[cell.y, cell.x] = True
                cells[router.router_id] = cell
        return Placement.from_cells(grid, [cells[i] for i in range(n)])

    @staticmethod
    def _client_zones(density: DensityMap, n: int, mass_fraction: float) -> list:
        """The distinct dense zones worth occupying.

        A *hotspot* is a window contributing to the bulk of the client
        mass: zones are taken in density order until ``mass_fraction`` of
        the clients captured by any window is covered.  This keeps
        heavy-tailed distributions (Exponential, Weibull) from scattering
        routers one-by-one onto straggler clients — a window holding one
        outlier is not a "dense zone" of the distribution.  Windows with
        no clients never qualify.
        """
        ranked = density.ranked_windows(n, densest=True, min_overlap_free=True)
        counted = [
            (zone, density.count_in(zone))
            for zone in ranked
            if density.count_in(zone) > 0
        ]
        if not counted:
            return [density.densest_window()]
        total = sum(count for _, count in counted)
        zones = []
        captured = 0
        for zone, count in counted:
            zones.append(zone)
            captured += count
            if captured >= mass_fraction * total:
                break
        return zones

    @staticmethod
    def _zone_quotas(density: DensityMap, zones: list, n: int) -> list[int]:
        """How many routers each zone receives (>= 1, density-weighted).

        The paper assigns "the most powerful router to the most dense
        zone, the second most powerful to the second most dense zone, and
        so on".  With fewer distinct zones than routers the ordering is
        continued proportionally: a zone holding twice the clients
        receives twice the routers (largest-remainder rounding), so the
        strongest share of the fleet serves the densest hotspots.
        """
        counts = np.array([density.count_in(zone) for zone in zones], dtype=float)
        if len(zones) >= n:
            return [1] * n
        if counts.sum() <= 0:
            # Clientless instance: the fallback zone(s) share the fleet
            # evenly.
            base = n // len(zones)
            quotas = [base] * len(zones)
            for index in range(n - base * len(zones)):
                quotas[index] += 1
            return quotas
        weights = counts / counts.sum()
        raw = weights * (n - len(zones))
        quotas = np.ones(len(zones), dtype=int) + np.floor(raw).astype(int)
        remainder = n - int(quotas.sum())
        # Largest fractional remainders (ties towards denser zones, which
        # come first in ``zones``) absorb the leftover routers.
        order = np.argsort(-(raw - np.floor(raw)), kind="stable")
        for index in order[:remainder]:
            quotas[index] += 1
        return [int(quota) for quota in quotas]

    def __repr__(self) -> str:
        return (
            f"HotSpotPlacement(window_fraction={self.window_fraction}, "
            f"window_width={self.window_width}, "
            f"window_height={self.window_height})"
        )
