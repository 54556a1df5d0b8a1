"""Property tests for the array-backed :class:`Placement`.

A placement stores a read-only ``(N, 2)`` int64 array and builds its
``Point`` and occupied-set views on demand.  It must validate exactly
like the ``Point``-tuple placement it replaced (same error messages, the
first out-of-grid cell in router order named) and be the same value
whichever way it was built: equal, same hash, same pickle round trip and
same serialized form.
"""

from __future__ import annotations

import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.solution import Placement
from repro.instances.serializer import placement_from_dict, placement_to_dict


def expected_error(grid: GridArea, cells: list[tuple[int, int]]) -> "str | None":
    """The message the Point-tuple placement raised for ``cells``."""
    if not cells:
        return "a placement must position at least one router"
    for x, y in cells:
        if not (0 <= x < grid.width and 0 <= y < grid.height):
            return f"cell {(x, y)} outside {grid.width}x{grid.height} grid"
    if len(set(cells)) != len(cells):
        return "placement has two routers on the same cell"
    return None


@st.composite
def raw_cells(draw):
    width = draw(st.integers(1, 10))
    height = draw(st.integers(1, 10))
    cell = st.tuples(st.integers(-3, width + 2), st.integers(-3, height + 2))
    cells = draw(st.lists(cell, min_size=0, max_size=min(30, width * height + 2)))
    return GridArea(width, height), cells


@st.composite
def valid_cells(draw):
    width = draw(st.integers(1, 12))
    height = draw(st.integers(1, 12))
    order = draw(st.permutations(range(width * height)))
    count = draw(st.integers(1, width * height))
    return GridArea(width, height), [(i % width, i // width) for i in order[:count]]


@settings(max_examples=300, deadline=None)
@given(raw_cells())
def test_validation_messages_match(case):
    grid, cells = case
    message = expected_error(grid, cells)
    builders = [lambda: Placement.from_cells(grid, [Point(*c) for c in cells])]
    if cells:
        builders.append(lambda: Placement(grid, np.array(cells, dtype=np.int64)))
    for build in builders:
        if message is None:
            assert build().cells == tuple(Point(*c) for c in cells)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()


@settings(max_examples=200, deadline=None)
@given(valid_cells())
def test_array_and_cells_construction_agree(case):
    grid, cells = case
    from_array = Placement(grid, np.array(cells, dtype=np.int64))
    from_points = Placement.from_cells(grid, [Point(*c) for c in cells])
    assert from_array == from_points
    assert from_points in {from_array}
    # The value hash of the Point-tuple dataclass (ints only: unsalted).
    value = (grid, tuple(Point(*c) for c in cells))
    assert hash(from_array) == hash(value)  # repro-lint: disable=RL001
    assert placement_to_dict(from_array) == placement_to_dict(from_points)
    assert placement_from_dict(placement_to_dict(from_array)) == from_points
    for placement in (from_array, from_points):
        restored = pickle.loads(pickle.dumps(placement))
        assert restored == placement
        assert restored in {placement}
        assert restored.occupied == frozenset(Point(*c) for c in cells)
        assert not restored.coords.flags.writeable
        np.testing.assert_array_equal(
            restored.positions_array(), np.array(cells, dtype=float)
        )


@settings(max_examples=100, deadline=None)
@given(valid_cells(), st.data())
def test_derived_placements_keep_their_views_consistent(case, data):
    grid, cells = case
    placement = Placement(grid, np.array(cells, dtype=np.int64))
    if data.draw(st.booleans()):
        placement.positions_array()  # derived placements then seed theirs
    n = len(cells)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    swapped = placement.with_swap(a, b)
    expected = list(placement.cells)
    expected[a], expected[b] = expected[b], expected[a]
    assert swapped == Placement.from_cells(grid, expected)
    np.testing.assert_array_equal(swapped.positions_array(), swapped.coords)
    if len(cells) < grid.n_cells:
        free = sorted(
            set(Point(x, y) for x in range(grid.width) for y in range(grid.height))
            - placement.occupied
        )
        target = data.draw(st.sampled_from(free))
        moved = placement.with_move(a, target)
        expected = list(placement.cells)
        expected[a] = target
        assert moved.cells == tuple(expected)
        assert moved == Placement.from_cells(grid, expected)
        np.testing.assert_array_equal(moved.positions_array(), moved.coords)


def test_coords_are_read_only_copies():
    grid = GridArea(4, 4)
    source = np.array([[0, 0], [1, 2]])
    placement = Placement(grid, source)
    source[0] = (3, 3)
    assert placement[0] == Point(0, 0)
    with pytest.raises(ValueError):
        placement.coords[0, 0] = 1


def test_repr_lists_the_cells():
    placement = Placement.from_cells(GridArea(4, 4), [Point(1, 2)])
    assert repr(placement) == (
        "Placement(grid=GridArea(width=4, height=4), cells=(Point(x=1, y=2),))"
    )
