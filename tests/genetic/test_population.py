"""Unit tests for individuals and populations."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import Evaluator
from repro.core.grid import GridArea
from repro.core.solution import Placement
from repro.genetic.individual import Individual
from repro.genetic.population import Population


@pytest.fixture
def population(tiny_problem, rng):
    placements = [
        Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        for _ in range(6)
    ]
    return Population.from_placements(placements)


class TestIndividual:
    def test_unevaluated_state(self, tiny_problem, rng):
        ind = Individual(
            Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        )
        assert not ind.is_evaluated
        with pytest.raises(ValueError, match="not been evaluated"):
            _ = ind.fitness

    def test_ensure_evaluated_caches(self, tiny_problem, rng):
        evaluator = Evaluator(tiny_problem)
        ind = Individual(
            Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        )
        first = ind.ensure_evaluated(evaluator)
        second = ind.ensure_evaluated(evaluator)
        assert first is second
        assert evaluator.n_evaluations == 1
        assert ind.fitness == first.fitness

    def test_copy_shares_state(self, tiny_problem, rng):
        evaluator = Evaluator(tiny_problem)
        ind = Individual(
            Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        )
        ind.ensure_evaluated(evaluator)
        clone = ind.copy()
        assert clone.placement is ind.placement
        assert clone.evaluation is ind.evaluation
        assert clone is not ind


class TestPopulation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Population([])

    def test_evaluate_all(self, population, tiny_problem):
        evaluator = Evaluator(tiny_problem)
        population.evaluate_all(evaluator)
        assert evaluator.n_evaluations == len(population)
        population.require_evaluated()

    def test_require_evaluated_raises(self, population):
        with pytest.raises(ValueError, match="not been evaluated"):
            population.require_evaluated()

    def test_best_and_elites(self, population, tiny_problem):
        evaluator = Evaluator(tiny_problem)
        population.evaluate_all(evaluator)
        best = population.best()
        assert best.fitness == max(ind.fitness for ind in population)
        elites = population.elites(3)
        assert len(elites) == 3
        assert elites[0].fitness == best.fitness
        fitness = [e.fitness for e in elites]
        assert fitness == sorted(fitness, reverse=True)

    def test_elites_are_copies(self, population, tiny_problem):
        population.evaluate_all(Evaluator(tiny_problem))
        elites = population.elites(2)
        members = set(map(id, population.individuals))
        assert all(id(e) not in members for e in elites)

    def test_elites_validation(self, population, tiny_problem):
        population.evaluate_all(Evaluator(tiny_problem))
        with pytest.raises(ValueError):
            population.elites(-1)
        assert population.elites(0) == []

    def test_mean_and_values(self, population, tiny_problem):
        population.evaluate_all(Evaluator(tiny_problem))
        values = population.fitness_values()
        assert values.shape == (len(population),)
        assert population.mean_fitness() == pytest.approx(values.mean())

    def test_diversity_zero_for_identical(self, tiny_problem, rng):
        placement = Placement.random(
            tiny_problem.grid, tiny_problem.n_routers, rng
        )
        population = Population.from_placements([placement] * 4)
        assert population.diversity() == 0.0

    def test_diversity_positive_for_distinct(self, population):
        assert population.diversity() > 0.0

    def test_diversity_single_individual(self, tiny_problem, rng):
        population = Population.from_placements(
            [Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)]
        )
        assert population.diversity() == 0.0

    def test_container_protocol(self, population):
        assert len(population) == 6
        assert population[0] is population.individuals[0]
        assert list(iter(population)) == population.individuals


def reference_diversity(population: Population) -> float:
    """The per-individual loop the vectorised diversity replaced."""
    stack = np.stack([ind.placement.positions_array() for ind in population])
    total, pairs = 0.0, 0
    for i in range(len(population)):
        deltas = stack[i + 1 :] - stack[i]
        if deltas.size:
            distances = np.sqrt((deltas**2).sum(axis=2))
            total += float(distances.mean(axis=1).sum())
            pairs += deltas.shape[0]
    return total / pairs if pairs else 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_diversity_matches_loop_reference(size, n_routers, seed):
    rng = np.random.default_rng(seed)
    grid = GridArea(40, 30)
    population = Population.from_placements(
        [Placement.random(grid, n_routers, rng) for _ in range(size)]
    )
    assert population.diversity() == reference_diversity(population)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=12))
def test_best_takes_the_first_maximum(values):
    placement = Placement.random(GridArea(8, 8), 4, np.random.default_rng(0))
    population = Population(
        [Individual(placement, SimpleNamespace(fitness=v)) for v in values]
    )
    expected = max(population.individuals, key=lambda ind: ind.fitness)
    assert population.best() is expected
    assert population.mean_fitness() == float(np.mean(values))
