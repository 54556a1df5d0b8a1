"""Property tests: array collision repair vs the Point-sequential reference.

Crossover children are ``(N, 2)`` arrays.  A linear-cell-index check
sends only children with a shared cell to
:func:`~repro.adhoc.base.resolve_collisions`, which returns early when
nothing collides and scans its nudging rings on an occupancy bitmap.
The reference below is the original Point-by-Point implementation —
every cell clamped and nudged in order, rings scanned over ``Point``
objects — and the array path must reproduce its cells and leave the
generator in the same state.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adhoc.base import nudge_to_free, resolve_collisions
from repro.core.geometry import Point, Rect
from repro.core.grid import GridArea
from repro.genetic.crossover import _child


def reference_nudge(grid, cell, taken, rng):
    start = grid.bounds.clamped(cell)
    if start not in taken:
        return start
    for radius in range(1, max(grid.width, grid.height) + 1):
        ring = []
        for dx in range(-radius, radius + 1):
            for dy in (-radius, radius):
                candidate = Point(start.x + dx, start.y + dy)
                if grid.contains(candidate) and candidate not in taken:
                    ring.append(candidate)
        for dy in range(-radius + 1, radius):
            for dx in (-radius, radius):
                candidate = Point(start.x + dx, start.y + dy)
                if grid.contains(candidate) and candidate not in taken:
                    ring.append(candidate)
        if ring:
            return ring[int(rng.integers(0, len(ring)))]
    raise ValueError("no free cell available on the grid")


def reference_resolve(grid, cells, rng, taken=()):
    occupied = set(taken)
    resolved = []
    for cell in cells:
        placed = reference_nudge(grid, cell, occupied, rng)
        occupied.add(placed)
        resolved.append(placed)
    return resolved


@st.composite
def crowded_cells(draw, margin: int = 0):
    """A grid (1xk strips included) and cells drawn with replacement.

    ``margin`` lets cells stray that far outside the grid (ad hoc
    pattern cells are clamped before nudging).
    """
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    n_cells = width * height
    count = draw(st.one_of(st.integers(1, n_cells), st.just(n_cells)))
    xs = st.integers(-margin, width - 1 + margin)
    ys = st.integers(-margin, height - 1 + margin)
    if draw(st.booleans()):
        # A full or near-full permutation: distinct cells, no repair.
        order = draw(st.permutations(range(n_cells)))[:count]
        cells = [Point(i % width, i // width) for i in order]
    else:
        cells = [Point(draw(xs), draw(ys)) for _ in range(count)]
    return GridArea(width, height), cells, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(crowded_cells())
def test_child_repair_matches_reference(case):
    grid, cells, seed = case
    coords = np.array(cells, dtype=np.int64)
    expected_rng = np.random.default_rng(seed)
    expected = reference_resolve(grid, cells, expected_rng)
    rng = np.random.default_rng(seed)
    child = _child(grid, coords, rng)
    assert list(child.cells) == expected
    assert rng.bit_generator.state == expected_rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(crowded_cells(margin=3), st.data())
def test_resolve_collisions_matches_reference(case, data):
    grid, cells, seed = case
    free_slots = grid.n_cells - len(cells)
    taken = [
        Point(data.draw(st.integers(0, grid.width - 1)),
              data.draw(st.integers(0, grid.height - 1)))
        for _ in range(data.draw(st.integers(0, max(0, free_slots))))
    ]
    expected_rng = np.random.default_rng(seed)
    expected = reference_resolve(grid, cells, expected_rng, taken)
    rng = np.random.default_rng(seed)
    assert resolve_collisions(grid, cells, rng, taken) == expected
    assert rng.bit_generator.state == expected_rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(crowded_cells(margin=2))
def test_nudge_on_bitmap_matches_set(case):
    grid, cells, seed = case
    taken = set(cells[1:])
    target = cells[0]
    if sum(1 for cell in taken if grid.contains(cell)) == grid.n_cells:
        return  # no free cell: both raise (covered in tests/adhoc)
    expected_rng = np.random.default_rng(seed)
    expected = reference_nudge(grid, target, taken, expected_rng)
    for form in (taken, grid.occupancy(taken)):
        rng = np.random.default_rng(seed)
        assert nudge_to_free(grid, target, form, rng) == expected
        assert rng.bit_generator.state == expected_rng.bit_generator.state


def reference_free_cell(grid, occupied, rng, within=None):
    region = grid.bounds if within is None else within.intersection(grid.bounds)
    for _ in range(64):
        candidate = grid.random_cell_in(region, rng)
        if candidate not in occupied:
            return candidate
    free = [cell for cell in region.cells() if cell not in occupied]
    if not free:
        raise ValueError("no free cell available in the requested region")
    return free[int(rng.integers(0, len(free)))]


@settings(max_examples=300, deadline=None)
@given(crowded_cells(), st.integers(-3, 8), st.integers(-3, 8), st.integers(1, 6))
def test_random_free_cell_matches_reference(case, x0, y0, side):
    """Rejection draws then the row-major fallback, on a set or a bitmap."""
    grid, cells, seed = case
    occupied = set(cells)
    window = Rect(x0, y0, side, side)
    if window.intersection(grid.bounds).area == 0:
        return
    expected_rng = np.random.default_rng(seed)
    try:
        expected = reference_free_cell(grid, occupied, expected_rng, window)
    except ValueError:
        expected = None
    for form in (occupied, grid.occupancy(cells)):
        rng = np.random.default_rng(seed)
        try:
            found = grid.random_free_cell(form, rng, within=window)
        except ValueError:
            found = None
        assert found == expected
        assert rng.bit_generator.state == expected_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 200))
def test_random_is_the_uniform_draw(seed, count):
    """Jiggle draws its per-gene coins with ``random()``: the same
    values and generator state as ``uniform()`` on [0, 1)."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    a.integers(0, 7)  # leave a buffered 32-bit half-word behind
    b.integers(0, 7)
    assert [a.uniform() for _ in range(count)] == [b.random() for _ in range(count)]
    assert a.bit_generator.state == b.bit_generator.state
