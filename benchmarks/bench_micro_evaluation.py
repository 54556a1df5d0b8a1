"""Micro-benchmarks of the evaluation hot path.

Timings for the pieces every search iteration pays for: full placement
evaluation, adjacency construction, component decomposition, coverage
and the density map.  Unlike the table/figure benches these use real
pytest-benchmark statistics (many rounds).
"""

from __future__ import annotations

import numpy as np

from repro.adhoc import RandomPlacement
from repro.core.connectivity import connected_components
from repro.core.density import DensityMap
from repro.core.evaluation import Evaluator
from repro.core.network import adjacency_matrix, edge_array
from repro.instances.catalog import paper_normal


def _setup():
    problem = paper_normal().generate()
    placement = RandomPlacement().place(problem, np.random.default_rng(0))
    return problem, placement


def test_micro_full_evaluation(benchmark):
    problem, placement = _setup()
    evaluator = Evaluator(problem)
    benchmark(evaluator.evaluate, placement)


def test_micro_adjacency_matrix(benchmark):
    problem, placement = _setup()
    positions = placement.positions_array()
    radii = problem.fleet.radii
    benchmark(adjacency_matrix, positions, radii, problem.link_rule)


def test_micro_connected_components(benchmark):
    problem, placement = _setup()
    adjacency = adjacency_matrix(
        placement.positions_array(), problem.fleet.radii, problem.link_rule
    )
    edges = edge_array(adjacency).tolist()
    benchmark(connected_components, problem.n_routers, edges)


def test_micro_density_map(benchmark):
    problem, _ = _setup()
    benchmark(
        DensityMap.build, problem.grid, problem.clients.positions, 16, 16
    )


def test_micro_adhoc_placement(benchmark):
    problem, _ = _setup()
    method = RandomPlacement()
    rng = np.random.default_rng(1)
    benchmark(method.place, problem, rng)
