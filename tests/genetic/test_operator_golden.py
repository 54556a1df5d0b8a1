"""Golden GA operator and ad hoc placement outputs, pinned as exact JSON.

Every crossover class, every mutation class, the GA's default
:class:`~repro.genetic.mutation.CompositeMutation` and each ad hoc
method's ``place`` run from fixed seeds on four instances:

* ``paper_normal`` — the paper's 64-router / 128x128 frame;
* ``crowded`` — 44 routers on an 8x8 grid, where crossover children
  collide and jiggle windows are mostly full;
* ``packed`` and ``full`` — 62 and 64 routers on the same grid, where
  rejection sampling runs out of attempts and
  :meth:`GridArea.random_free_cell` falls back to its row-major
  enumeration of the free cells.

Each record holds the output cells and the next
``rng.integers(2**62)`` drawn after the call, which pins how many
draws the operator made.  The operators must reproduce the records
exactly, whatever their internal representation.

Regenerate the records (only for an intended behaviour change)::

    PYTHONPATH=src python tests/genetic/test_operator_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.adhoc.registry import PAPER_METHOD_ORDER, make_method
from repro.core.solution import Placement
from repro.genetic.crossover import (
    OnePointCrossover,
    RegionExchangeCrossover,
    UniformCrossover,
)
from repro.genetic.engine import GAConfig
from repro.genetic.mutation import (
    GeneSwapMutation,
    JiggleMutation,
    ResetMutation,
    TowardCentroidMutation,
)
from repro.instances.catalog import paper_normal
from repro.instances.generator import InstanceSpec

GOLDEN = Path(__file__).with_name("operator_golden.json")

INSTANCES = {
    "paper_normal": paper_normal,
    "crowded": lambda: InstanceSpec(
        name="crowded", width=8, height=8, n_routers=44, n_clients=16,
        distribution="uniform", seed=3,
    ),
    "packed": lambda: InstanceSpec(
        name="packed", width=8, height=8, n_routers=62, n_clients=16,
        distribution="uniform", seed=4,
    ),
    "full": lambda: InstanceSpec(
        name="full", width=8, height=8, n_routers=64, n_clients=16,
        distribution="uniform", seed=5,
    ),
}

CROSSOVERS = {
    "uniform": UniformCrossover,
    "uniform-0.3": lambda: UniformCrossover(mix_rate=0.3),
    "one-point": OnePointCrossover,
    "region-exchange": RegionExchangeCrossover,
    "region-exchange-small": lambda: RegionExchangeCrossover(0.1, 0.3),
}

MUTATIONS = {
    "jiggle": JiggleMutation,
    "jiggle-r1-all": lambda: JiggleMutation(radius=1, per_gene_rate=1.0),
    "reset": ResetMutation,
    "reset-5": lambda: ResetMutation(count=5),
    "gene-swap": GeneSwapMutation,
    "toward-centroid": TowardCentroidMutation,
    "toward-centroid-still": lambda: TowardCentroidMutation(jitter=0),
    "composite-default": lambda: GAConfig().mutation,
}

SEEDS = (0, 1, 2, 3)

_PROBLEMS: dict = {}


def _problem(instance: str):
    if instance not in _PROBLEMS:
        _PROBLEMS[instance] = INSTANCES[instance]().generate()
    return _PROBLEMS[instance]


def _cells(placement: Placement) -> list[list[int]]:
    return [[int(cell[0]), int(cell[1])] for cell in placement.cells]


def _parents(instance: str, seed: int) -> tuple[Placement, Placement]:
    problem = _problem(instance)
    rng = np.random.default_rng(seed)
    return (
        Placement.random(problem.grid, problem.n_routers, rng),
        Placement.random(problem.grid, problem.n_routers, rng),
    )


def _case_ids() -> list[str]:
    ids = []
    for instance in INSTANCES:
        for seed in SEEDS:
            ids += [f"crossover/{name}/{instance}/{seed}" for name in CROSSOVERS]
            ids += [f"mutation/{name}/{instance}/{seed}" for name in MUTATIONS]
            ids += [f"adhoc/{name}/{instance}/{seed}" for name in PAPER_METHOD_ORDER]
    return ids


def record(case: str) -> dict:
    """The golden fields of one case."""
    kind, name, instance, seed_text = case.split("/")
    seed = int(seed_text)
    rng = np.random.default_rng(10_000 + seed)
    if kind == "crossover":
        parent_a, parent_b = _parents(instance, seed)
        children = CROSSOVERS[name]().crossover(parent_a, parent_b, rng)
        cells = [_cells(child) for child in children]
    elif kind == "mutation":
        parent, _ = _parents(instance, seed)
        cells = [_cells(MUTATIONS[name]().mutate(parent, rng))]
    else:
        cells = [_cells(make_method(name).place(_problem(instance), rng))]
    return {"cells": cells, "next_draw": int(rng.integers(2**62))}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_ids())


@pytest.mark.parametrize("case", _case_ids())
def test_operator_matches_golden(case, golden):
    assert record(case) == golden[case]


if __name__ == "__main__":
    records = {case: record(case) for case in _case_ids()}
    GOLDEN.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(case)}: {json.dumps(value, separators=(',', ':'))}"
            for case, value in records.items()
        )
        + "\n}\n",
        encoding="utf-8",
    )
    print(f"wrote {len(records)} records to {GOLDEN}")
