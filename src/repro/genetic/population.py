"""GA populations.

A thin, explicit container over :class:`~repro.genetic.individual.Individual`
with the aggregate queries the engine and the diversity analysis need
(best individual, mean fitness, spatial diversity of the gene pool).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.evaluation import Evaluator
from repro.genetic.individual import Individual

__all__ = ["Population"]


@dataclass
class Population:
    """An ordered collection of individuals."""

    individuals: list[Individual] = field(default_factory=list)
    #: Fitness array, cached once every individual is evaluated.
    _fitness: "np.ndarray | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.individuals:
            raise ValueError("a population must contain at least one individual")

    def __len__(self) -> int:
        return len(self.individuals)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self.individuals)

    def __getitem__(self, index: int) -> Individual:
        return self.individuals[index]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate_all(self, evaluator: Evaluator) -> None:
        """Ensure every individual carries an evaluation.

        The unevaluated individuals (a whole offspring generation, after
        elites carried their cached evaluations over) are measured as one
        batch through the vectorized engine — bit-identical results and
        evaluation counts, one pass instead of a Python loop.  Evaluators
        without a batch path (e.g. test doubles) fall back to the scalar
        loop.
        """
        pending = [ind for ind in self.individuals if not ind.is_evaluated]
        if not pending:
            return
        self._fitness = None
        evaluate_many = getattr(evaluator, "evaluate_many", None)
        if evaluate_many is None:
            for individual in pending:
                individual.ensure_evaluated(evaluator)
            return
        evaluations = evaluate_many([ind.placement for ind in pending])
        for individual, evaluation in zip(pending, evaluations):
            individual.evaluation = evaluation

    def require_evaluated(self) -> None:
        """Raise unless every individual is evaluated."""
        for index, individual in enumerate(self.individuals):
            if not individual.is_evaluated:
                raise ValueError(f"individual {index} has not been evaluated")

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def best(self) -> Individual:
        """The fittest individual (first on ties, deterministic)."""
        return self.individuals[int(np.argmax(self.fitness_values()))]

    def elites(self, count: int) -> list[Individual]:
        """The ``count`` fittest individuals, fittest first."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self.require_evaluated()
        ranked = sorted(self.individuals, key=lambda ind: ind.fitness, reverse=True)
        return [individual.copy() for individual in ranked[:count]]

    def mean_fitness(self) -> float:
        """Average fitness over the population."""
        return float(np.mean(self.fitness_values()))

    def fitness_values(self) -> np.ndarray:
        """Fitness of every individual, in population order (read-only).

        Built on the first call after the population is fully evaluated
        and cached, so selection picks over one array per generation.
        """
        if self._fitness is None:
            self.require_evaluated()
            values = np.array([ind.fitness for ind in self.individuals])
            values.setflags(write=False)
            self._fitness = values
        return self._fitness

    def diversity(self) -> float:
        """Mean pairwise distance between chromosomes (gene-averaged).

        "The diversity of the population ... is a crucial factor to avoid
        premature convergence" (Section 5): this metric lets experiments
        quantify what the different ad hoc initializers contribute.
        Computed as the average over router ids of the mean pairwise
        Euclidean distance between the routers' cells across individuals.
        """
        size = len(self.individuals)
        if size < 2:
            return 0.0
        # stack: (P, N, 2) — population size x routers x coordinates
        stack = np.stack([ind.placement.coords for ind in self.individuals])
        stack = stack.astype(float)
        xs, ys = stack[:, :, 0], stack[:, :, 1]
        total = 0.0
        for i in range(size - 1):
            dx = xs[i + 1 :] - xs[i]
            dy = ys[i + 1 :] - ys[i]
            total += float(np.sqrt(dx * dx + dy * dy).mean(axis=1).sum())
        return total / (size * (size - 1) // 2)

    @classmethod
    def from_placements(cls, placements: Sequence) -> "Population":
        """Wrap raw placements into unevaluated individuals."""
        return cls([Individual(placement=placement) for placement in placements])
