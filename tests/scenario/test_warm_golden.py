"""Golden warm-started scenario runs, pinned as exact JSON.

Each case drives one delta-engine solver (simulated annealing or tabu
search) through a three-transition scenario with
:class:`~repro.scenario.runner.ScenarioRunner`, so steps 1..3 are warm
starts from the previous step's best placement.  The recorded fields —
best fitness ``repr``, metrics, placement cells, evaluation count and
phase trace — must match ``warm_golden.json`` exactly on every engine
tier.

The ``compiled`` cases run on ``engine="compiled"`` when the kernels are
available and on ``engine="auto"`` (the numpy fallback) otherwise, so
under ``REPRO_COMPILED=0`` they check the numpy tiers against the
records the kernels produced.

Regenerate the records (only for an intended behaviour change)::

    PYTHONPATH=src python tests/scenario/test_warm_golden.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.engine import compiled_available
from repro.instances.catalog import city_spec, tiny_spec
from repro.scenario import Scenario, ScenarioRunner

GOLDEN = Path(__file__).with_name("warm_golden.json")

SOLVERS = {
    "annealing:swap": {"moves_per_phase": 6},
    "tabu:random": {"n_candidates": 6},
}
SCENARIOS = ("drift", "outage")
INSTANCES = {"tiny": tiny_spec, "city": lambda: city_spec(256, 20_000)}
ENGINES = ("dense", "sparse", "compiled")
N_STEPS = 3
BUDGET = 4


def _case_ids() -> list[str]:
    return [
        f"{spec}/{scenario}/{instance}/{engine}"
        for spec in SOLVERS
        for scenario in SCENARIOS
        for instance in INSTANCES
        for engine in ENGINES
    ]


def _scenario(kind: str, instance: str) -> Scenario:
    base = INSTANCES[instance]().generate()
    if kind == "drift":
        return Scenario.client_drift(base, N_STEPS)
    return Scenario.router_outages(base, N_STEPS)


def record(case: str) -> list[dict]:
    """The per-step golden fields of one case."""
    spec, kind, instance, engine = case.split("/")
    if engine == "compiled" and not compiled_available():
        engine = "auto"
    runner = ScenarioRunner(spec, budget=BUDGET, engine=engine, **SOLVERS[spec])
    result = runner.run(_scenario(kind, instance), seed=11)
    return [
        {
            "fitness": repr(step.result.best.fitness),
            "metrics": {
                name: repr(value)
                for name, value in dataclasses.asdict(
                    step.result.best.metrics
                ).items()
            },
            "cells": [list(cell) for cell in step.result.best.placement.cells],
            "n_evaluations": step.result.n_evaluations,
            "trace": [phase.as_dict() for phase in step.result.trace],
        }
        for step in result.steps
    ]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_ids())


@pytest.mark.parametrize("case", _case_ids())
def test_warm_run_matches_golden(golden, case):
    # A JSON round trip normalizes tuples to lists and floats exactly.
    assert json.loads(json.dumps(record(case))) == golden[case]


if __name__ == "__main__":
    lines = (
        f"{json.dumps(case)}: {json.dumps(record(case), separators=(',', ':'))}"
        for case in _case_ids()
    )
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
