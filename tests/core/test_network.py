"""Unit tests for the router communication graph."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.network import RouterNetwork, adjacency_matrix, edge_array
from repro.core.problem import ProblemInstance
from repro.core.radio import LinkRule
from repro.core.routers import RouterFleet
from repro.core.clients import ClientSet
from repro.core.solution import Placement


def line_problem(radii, link_rule=LinkRule.BIDIRECTIONAL):
    """Routers on a horizontal line at x = 0, 4, 8, ... for hand checks."""
    grid = GridArea(64, 8)
    fleet = RouterFleet.from_radii(radii)
    clients = ClientSet.from_points([])
    problem = ProblemInstance(
        grid=grid, fleet=fleet, clients=clients, link_rule=link_rule
    )
    placement = Placement.from_cells(
        grid, [Point(4 * i, 0) for i in range(len(radii))]
    )
    return problem, placement


class TestAdjacencyMatrix:
    def test_shape_and_diagonal(self):
        positions = np.array([[0.0, 0.0], [3.0, 0.0], [10.0, 0.0]])
        radii = np.array([5.0, 5.0, 5.0])
        adj = adjacency_matrix(positions, radii, LinkRule.BIDIRECTIONAL)
        assert adj.shape == (3, 3)
        assert not adj.diagonal().any()

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 50, size=(20, 2))
        radii = rng.uniform(1, 10, size=20)
        for rule in LinkRule:
            adj = adjacency_matrix(positions, radii, rule)
            assert np.array_equal(adj, adj.T)

    def test_bidirectional_uses_min(self):
        positions = np.array([[0.0, 0.0], [4.0, 0.0]])
        # min(3, 10) = 3 < 4: no link
        adj = adjacency_matrix(
            positions, np.array([3.0, 10.0]), LinkRule.BIDIRECTIONAL
        )
        assert not adj[0, 1]

    def test_unidirectional_uses_max(self):
        positions = np.array([[0.0, 0.0], [4.0, 0.0]])
        adj = adjacency_matrix(
            positions, np.array([3.0, 10.0]), LinkRule.UNIDIRECTIONAL
        )
        assert adj[0, 1]

    def test_overlap_uses_sum(self):
        positions = np.array([[0.0, 0.0], [4.0, 0.0]])
        adj = adjacency_matrix(positions, np.array([2.0, 2.0]), LinkRule.OVERLAP)
        assert adj[0, 1]
        adj = adjacency_matrix(positions, np.array([1.9, 2.0]), LinkRule.OVERLAP)
        assert not adj[0, 1]

    def test_boundary_distance_links(self):
        positions = np.array([[0.0, 0.0], [5.0, 0.0]])
        adj = adjacency_matrix(
            positions, np.array([5.0, 5.0]), LinkRule.BIDIRECTIONAL
        )
        assert adj[0, 1]

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            adjacency_matrix(
                np.zeros((3, 3)), np.ones(3), LinkRule.OVERLAP
            )
        with pytest.raises(ValueError):
            adjacency_matrix(
                np.zeros((3, 2)), np.ones(4), LinkRule.OVERLAP
            )


class TestLinkEdges:
    """The upper-triangular ``(i < j)`` link edges of an adjacency matrix."""

    def test_upper_triangular(self):
        adj = np.array(
            [
                [False, True, False],
                [True, False, True],
                [False, True, False],
            ]
        )
        edges = edge_array(adj)
        assert edges.dtype == np.intp
        assert edges.tolist() == [[0, 1], [1, 2]]

    def test_empty(self):
        assert edge_array(np.zeros((3, 3), dtype=bool)).shape == (0, 2)


class TestRouterNetwork:
    def test_chain_connectivity(self):
        # Radii 4: consecutive routers 4 apart link under BIDIRECTIONAL.
        problem, placement = line_problem([4.0, 4.0, 4.0, 4.0])
        network = RouterNetwork.build(problem, placement)
        assert network.giant_size == 4
        assert network.n_links == 3
        assert network.components.n_components == 1

    def test_broken_chain(self):
        # The weak middle router (radius 2) cannot reach its neighbors.
        problem, placement = line_problem([4.0, 2.0, 4.0, 4.0])
        network = RouterNetwork.build(problem, placement)
        assert network.giant_size == 2  # routers 2-3
        assert network.components.n_components == 3

    def test_isolated_routers(self):
        # Routers 2 and 3 (4 apart, radii 4) link; router 0's only close
        # neighbor is the weak router 1, and min(4, 1) < 4, so both are
        # isolated.
        problem, placement = line_problem([4.0, 1.0, 4.0, 4.0])
        network = RouterNetwork.build(problem, placement)
        assert network.isolated_routers() == [0, 1]

    def test_degrees_and_mean(self):
        problem, placement = line_problem([4.0, 4.0, 4.0])
        network = RouterNetwork.build(problem, placement)
        assert list(network.degrees()) == [1, 2, 1]
        assert network.mean_degree() == pytest.approx(4 / 3)

    def test_giant_mask(self):
        problem, placement = line_problem([4.0, 4.0, 1.0])
        network = RouterNetwork.build(problem, placement)
        assert list(network.giant_mask()) == [True, True, False]

    def test_placement_size_mismatch_rejected(self):
        problem, placement = line_problem([4.0, 4.0])
        bad = Placement.from_cells(problem.grid, [Point(0, 0)])
        with pytest.raises(ValueError, match="fleet"):
            RouterNetwork.build(problem, bad)

    def test_matches_networkx_on_random_instance(self, tiny_problem, rng):
        placement = Placement.random(
            tiny_problem.grid, tiny_problem.n_routers, rng
        )
        network = RouterNetwork.build(tiny_problem, placement)
        graph = nx.Graph()
        graph.add_nodes_from(range(tiny_problem.n_routers))
        graph.add_edges_from(edge_array(network.adjacency).tolist())
        assert network.giant_size == max(
            len(c) for c in nx.connected_components(graph)
        )
        assert network.n_links == graph.number_of_edges()
