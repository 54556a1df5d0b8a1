"""Unit tests for selection operators."""

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
from repro.genetic.selection import (
    RankSelection,
    RouletteWheelSelection,
    TournamentSelection,
)


@pytest.fixture
def evaluated_population(tiny_problem, rng):
    placements = [
        Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        for _ in range(8)
    ]
    population = Population.from_placements(placements)
    population.evaluate_all(Evaluator(tiny_problem))
    return population


ALL_OPERATORS = [
    TournamentSelection(size=3),
    RouletteWheelSelection(),
    RankSelection(),
]


@pytest.mark.parametrize("operator", ALL_OPERATORS, ids=lambda o: o.name)
class TestCommonBehaviour:
    def test_selects_member_of_population(self, operator, evaluated_population, rng):
        for _ in range(20):
            chosen = operator.select(evaluated_population, rng)
            assert chosen in evaluated_population.individuals

    def test_select_pair(self, operator, evaluated_population, rng):
        a, b = operator.select_pair(evaluated_population, rng)
        assert a in evaluated_population.individuals
        assert b in evaluated_population.individuals

    def test_deterministic_given_seed(self, operator, evaluated_population):
        a = operator.select(evaluated_population, np.random.default_rng(42))
        b = operator.select(evaluated_population, np.random.default_rng(42))
        assert a is b

    def test_biased_towards_fitter(self, operator, evaluated_population):
        # Statistical: the mean fitness of selected parents must beat the
        # population mean over many draws.
        rng = np.random.default_rng(7)
        picks = [
            operator.select(evaluated_population, rng).fitness
            for _ in range(400)
        ]
        assert np.mean(picks) >= evaluated_population.mean_fitness()


class TestTournament:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            TournamentSelection(size=0)

    def test_large_tournament_selects_best(self, evaluated_population):
        # With a tournament far larger than the population, the best
        # individual almost surely participates and wins.
        operator = TournamentSelection(size=256)
        chosen = operator.select(evaluated_population, np.random.default_rng(0))
        assert chosen.fitness == evaluated_population.best().fitness

    def test_requires_evaluated(self, tiny_problem, rng):
        population = Population.from_placements(
            [Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)]
        )
        with pytest.raises(ValueError):
            TournamentSelection().select(population, rng)


class TestRoulette:
    def test_degenerate_equal_fitness_uniform(self, tiny_problem, rng):
        placement = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        population = Population.from_placements([placement] * 4)
        population.evaluate_all(Evaluator(tiny_problem))
        # All fitness equal -> shifted weights are all zero -> uniform.
        counts = np.zeros(4)
        for _ in range(200):
            chosen = RouletteWheelSelection().select(population, rng)
            counts[population.individuals.index(chosen)] += 1
        assert (counts > 0).all()


class TestRank:
    def test_rank_ignores_magnitude(self, tiny_problem, rng):
        placements = [
            Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
            for _ in range(4)
        ]
        population = Population.from_placements(placements)
        population.evaluate_all(Evaluator(tiny_problem))
        # Rank selection probabilities depend only on the ordering:
        # 1/10, 2/10, 3/10, 4/10 for 4 individuals.
        rng2 = np.random.default_rng(0)
        counts = np.zeros(4)
        order = np.argsort([ind.fitness for ind in population.individuals])
        for _ in range(2000):
            chosen = RankSelection().select(population, rng2)
            counts[population.individuals.index(chosen)] += 1
        best_index = order[-1]
        worst_index = order[0]
        assert counts[best_index] > counts[worst_index]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=10),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_tournament_breaks_ties_like_max(values, size, seed):
    """The first maximum in draw order wins, as ``max()`` chose it."""
    placement = Placement.random(GridArea(8, 8), 4, np.random.default_rng(0))
    population = Population(
        [Individual(placement, SimpleNamespace(fitness=v)) for v in values]
    )
    reference_rng = np.random.default_rng(seed)
    indices = reference_rng.integers(0, len(population), size=size)
    expected = population[int(max(indices, key=lambda i: values[int(i)]))]
    chosen = TournamentSelection(size).select(population, np.random.default_rng(seed))
    assert chosen is expected
