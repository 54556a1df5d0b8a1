"""Benchmark: the paper's reproduction end to end, with its GA layer split.

Workload: ``run_all(QUICK_SCALE, seed)`` plus ``render_text()`` — Tables
1-3 and Figures 1-3 (seven GA runs per client distribution, each seeded
by one ad hoc method) and Figure 4 (neighborhood search).  A closed job:
one report, start to finish, in one process.

The bench reports:

* the end-to-end wall time of ``--rounds`` runs (median and quartiles;
  one untimed warm-up run first, so kernel loading is not counted);
* one more, instrumented run whose wall time is split over the GA
  layers — parent selection, crossover (without repair), collision
  repair, mutation, evaluation and population statistics — by timing
  wrappers this script installs around each layer's entry point
  (nested calls of one layer count once); "other" is the rest (ad hoc
  placement, neighborhood search, reporting);
* the SHA-256 of the rendered report, which must be identical in every
  round, instrumented or not.

``--baseline FILE`` embeds the summary of an earlier record (for
example the same script run against an older source tree) and gates
the median speedup over it at ``--min-speedup``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_reproduce.py [--smoke] [--rounds 5]

``--smoke`` runs a reduced scale once, with no wall-clock gate.  A
machine-readable record lands in ``BENCH_reproduce.json`` (repo root
by default).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import statistics
import sys
import time
from contextlib import contextmanager

from _common import add_json_argument, write_bench_json
from repro.core.evaluation import Evaluator
from repro.experiments import ExperimentScale, run_all
from repro.experiments.config import QUICK_SCALE
from repro.genetic import crossover as crossover_module
from repro.genetic.crossover import CrossoverOperator
from repro.genetic.mutation import MutationOperator
from repro.genetic.population import Population
from repro.genetic.selection import SelectionOperator

SMOKE_SCALE = ExperimentScale(
    name="smoke",
    population_size=6,
    n_generations=4,
    ns_phases=3,
    ns_candidates=6,
    record_step=2,
)

#: ``(class, method, layer)``: the method is wrapped on the class and on
#: every subclass that overrides it.
LAYER_METHODS = (
    (SelectionOperator, "select_pair", "select"),
    (CrossoverOperator, "crossover", "crossover"),
    (MutationOperator, "mutate", "mutate"),
    (Evaluator, "evaluate", "evaluate"),
    (Evaluator, "evaluate_many", "evaluate"),
    (Population, "diversity", "population"),
    (Population, "mean_fitness", "population"),
)
LAYERS = ("select", "crossover", "repair", "mutate", "evaluate", "population")


class LayerClock:
    """Busy seconds and calls per layer; a layer nested in itself counts once."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self._open: set[str] = set()

    def wrap(self, layer: str, function):
        @functools.wraps(function)
        def timed(*args, **kwargs):
            if layer in self._open:
                return function(*args, **kwargs)
            self._open.add(layer)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds[layer] += time.perf_counter() - start
                self.calls[layer] += 1
                self._open.discard(layer)

        return timed


def _overriding(cls, attr: str) -> list:
    found, pending = [cls], list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            pending.extend(sub.__subclasses__())
            if attr in vars(sub):
                found.append(sub)
    return found


@contextmanager
def instrumented(clock: LayerClock):
    """Install the layer wrappers for the duration of the block."""
    originals = []
    for cls, attr, layer in LAYER_METHODS:
        for target in _overriding(cls, attr):
            originals.append((target, attr, vars(target)[attr]))
            setattr(target, attr, clock.wrap(layer, vars(target)[attr]))
    # Crossover calls its repair through this module-level name.
    repair = crossover_module.resolve_collisions
    crossover_module.resolve_collisions = clock.wrap("repair", repair)
    try:
        yield clock
    finally:
        crossover_module.resolve_collisions = repair
        for target, attr, original in reversed(originals):
            setattr(target, attr, original)


def one_run(scale: ExperimentScale, seed: int) -> tuple[float, str]:
    """Wall seconds and report digest of one ``run_all`` + render."""
    start = time.perf_counter()
    text = run_all(scale, seed=seed).render_text()
    wall = time.perf_counter() - start
    return wall, hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(samples: list[float]) -> dict:
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = median = q3 = ordered[0]
    return {
        "samples": samples,
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
    }


def layer_split(scale: ExperimentScale, seed: int) -> tuple[dict, str]:
    clock = LayerClock()
    with instrumented(clock):
        wall, digest = one_run(scale, seed)
    # Repair runs inside crossover: crossover's share is its own part.
    own = dict(clock.seconds)
    own["crossover"] -= own["repair"]
    split = {
        layer: {
            "seconds": own[layer],
            "calls": clock.calls[layer],
            "share": own[layer] / wall,
        }
        for layer in LAYERS
    }
    other = wall - sum(own.values())
    split["other"] = {"seconds": other, "calls": None, "share": other / wall}
    return {"wall_s": wall, "layers": split}, digest


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5,
                        help="timed end-to-end runs (default 5)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="CI crash check: reduced scale, 1 round, "
                        "no wall-clock gate")
    parser.add_argument("--baseline", metavar="FILE",
                        help="an earlier BENCH_reproduce.json to embed and "
                        "compare against")
    parser.add_argument("--min-speedup", type=float, default=2.5,
                        help="with --baseline (and without --smoke): fail "
                        "unless the median speeds up by at least X "
                        "(default 2.5)")
    add_json_argument(parser)
    args = parser.parse_args(argv)

    scale = SMOKE_SCALE if args.smoke else QUICK_SCALE
    rounds = 1 if args.smoke else args.rounds
    if rounds < 1:
        parser.error("--rounds must be at least 1")

    one_run(SMOKE_SCALE, args.seed)  # warm-up: imports, kernel load
    walls, digests = [], set()
    for index in range(rounds):
        wall, digest = one_run(scale, args.seed)
        walls.append(wall)
        digests.add(digest)
        print(f"round {index + 1}/{rounds}: {wall:.2f} s  report {digest[:16]}")
    split, traced_digest = layer_split(scale, args.seed)
    digests.add(traced_digest)
    wall = summarize(walls)
    print(
        f"wall median {wall['median']:.2f} s  "
        f"(q1 {wall['q1']:.2f}, q3 {wall['q3']:.2f}) over {rounds} rounds"
    )
    print(f"instrumented run {split['wall_s']:.2f} s:")
    for layer, entry in split["layers"].items():
        print(f"  {layer:<11} {entry['seconds']:7.2f} s  {entry['share']:6.1%}")

    failures = []
    if len(digests) != 1:
        failures.append(f"report digests differ between rounds: {sorted(digests)}")
    payload = {
        "seed": args.seed,
        "experiment_scale": scale.name,
        "rounds": rounds,
        "wall_s": wall,
        "layer_split": split,
        "report_sha256": sorted(digests)[0],
    }
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as stream:
            baseline = json.load(stream)
        speedup = baseline["wall_s"]["median"] / wall["median"]
        payload["baseline"] = {
            key: baseline[key]
            for key in ("host", "rounds", "wall_s", "layer_split", "report_sha256")
        }
        payload["speedup_vs_baseline"] = speedup
        print(f"median speedup over the baseline: {speedup:.2f}x")
        if baseline["report_sha256"] != payload["report_sha256"]:
            failures.append("the report differs from the baseline's")
        if not args.smoke and speedup < args.min_speedup:
            failures.append(
                f"median speedup {speedup:.2f}x below {args.min_speedup:.2f}x"
            )
    write_bench_json("reproduce", payload, args.json)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
