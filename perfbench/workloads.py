"""The three benchmark workloads.

Each workload drives one public entry point of the program, checks the
outputs, and exposes the samples the end-to-end metrics are built from:

* ``reproduce`` — ``run_all(QUICK_SCALE, seed)`` plus ``render_text()``:
  the paper's Tables 1-3 and Figures 1-4, a closed job dominated by the
  GA layer.
* ``fleet-city`` — ``ScenarioFleet.run`` of client-drift and
  router-outage scenarios x {``search:swap``, ``search:random``} on a
  256-router, 20 000-client city instance, over a 2-worker warm pool
  with a checkpoint directory: the lockstep multi-chain search, the
  stacked delta engine on the sparse layout, the zero-copy broadcast
  and checkpoint writes.
* ``live-drift`` — ``LiveRunner.run_steps`` in-process on the real
  clock: ``search:swap`` re-optimizing ``paper_normal`` under client
  drift with a 250 ms SLA, an open loop of events at a fixed interval.

``setup`` does everything a user pays before the first result (instance
generation, kernel load, pool fork and broadcast, a small warm-up pass);
``run`` is one timed job; ``check`` verifies its outputs.  ``speed`` is
the process's :class:`~perfbench.hostspeed.SpeedLog`; a workload whose
job is long takes calibration blocks inside it.
"""

from __future__ import annotations

import json
import os
import shutil
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.hostspeed import SpeedLog
from perfbench.stats import compare_digests, sha256_text

__all__ = ["Check", "Job", "WORKLOADS", "make_workload"]


@dataclass
class Check:
    """Outcome of one job's output check.

    ``failed`` counts outputs that failed their check (the run is then
    incorrect); ``missed`` counts operations that completed correctly
    but missed their service level (live-drift's shed and late events).
    Both count as failed operations in ``ok_frac``.
    """

    attempted: int
    failed: int = 0
    missed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    reference: str = "none"

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


@dataclass
class Job:
    """One timed job's outputs, as the metrics need them."""

    value: object
    #: Per-unit latencies in seconds (see each workload's ``unit``),
    #: calibration blocks excluded.
    latencies: list[float]
    mean_fitness: float
    #: For each latency, the ``(start, end)`` clock readings of the
    #: work it timed, when the workload has them: each latency is then
    #: scaled by the host speed there, else by that over its whole job.
    latency_windows: "list[tuple[float, float]] | None" = None
    #: Layer metrics read off the program's own reports (numbers, or
    #: sample lists the traced run turns into percentiles).
    layers: dict[str, object] = field(default_factory=dict)


def _load_reference(root: Path, workload: str, seed: int) -> "dict | None":
    path = root / "perfbench" / "reference.json"
    if not path.is_file():
        return None
    table = json.loads(path.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def _check_reference(check: Check, reference: "dict | None", keys) -> list[str]:
    """The ``keys`` whose digest differs from the stored reference.

    Returns nothing (and leaves ``check.reference`` at ``"none"``) when
    no reference is stored for this seed.
    """
    if reference is None:
        return []
    mismatched = compare_digests(
        {key: check.digests.get(key) for key in keys},
        {key: reference.get(key) for key in keys},
    )
    check.reference = "mismatched" if mismatched else "matched"
    return mismatched


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------


class Reproduce:
    """Quick-scale ``run_all`` and its text report."""

    name = "reproduce"
    unit = "GA generation"
    #: A run's jobs are ``--seconds // job_seconds`` (at least one);
    #: ``index`` selects the job's inputs (a closed job repeats the same
    #: seed, so repeats must reproduce its digests).  ``job_seconds`` is
    #: about one job's time on the 2-CPU host that set it.
    same_inputs = True
    job_seconds = 20.0
    #: Tables 1-3 and Figures 1-4.
    n_artifacts = 7

    def __init__(self, root: Path) -> None:
        self.root = root
        self.speed = SpeedLog(enabled=False)
        self._stamps: "list[float] | None" = None

    def setup(self, seed: int) -> None:
        from repro.experiments import ExperimentScale, run_all
        from repro.experiments.config import QUICK_SCALE
        from repro.instances.catalog import paper_normal

        self.scale = QUICK_SCALE
        self.problem = paper_normal().generate()
        self._hook_generations()
        warmup = ExperimentScale(
            name="warmup",
            population_size=4,
            n_generations=2,
            ns_phases=2,
            ns_candidates=4,
            record_step=1,
        )
        run_all(warmup, seed=seed).render_text()

    def _hook_generations(self) -> None:
        """Timestamp GA generations: one clock read per generation.

        A GA run evaluates its initial population and then one offspring
        generation per step, each through ``Population.evaluate_all``;
        the gaps between consecutive evaluations of one run are its
        generation latencies.  Calibration blocks are taken after an
        evaluation when one is due; the generation gap they fall in
        excludes them.
        """
        from repro.anytime.deadline import DEFAULT_CLOCK
        from repro.genetic.engine import GeneticAlgorithm
        from repro.genetic.population import Population

        evaluate_all = Population.evaluate_all
        ga_run = GeneticAlgorithm.run
        workload = self

        def timed_evaluate_all(population, evaluator):
            evaluate_all(population, evaluator)
            if workload._stamps is not None:
                workload._stamps.append(DEFAULT_CLOCK.now())
            workload.speed.maybe_calibrate()

        def timed_run(ga, *args, **kwargs):
            outer = workload._stamps
            workload._stamps = []
            try:
                return ga_run(ga, *args, **kwargs)
            finally:
                stamps = workload._stamps
                workload._spans.extend(zip(stamps[:-1], stamps[1:]))
                workload._stamps = outer

        Population.evaluate_all = timed_evaluate_all
        GeneticAlgorithm.run = timed_run
        self._spans: list[tuple[float, float]] = []

    def run(self, seed: int, index: int) -> Job:
        from repro.core.fitness import WeightedSumFitness
        from repro.experiments import run_all

        self._spans = []
        report = run_all(self.scale, seed=seed)
        text = report.render_text()
        weights = WeightedSumFitness()
        fitness = [
            weights.connectivity_weight * row.giant_by_ga / table.spec.n_routers
            + weights.coverage_weight * row.coverage_by_ga / table.spec.n_clients
            for table in report.tables
            for row in table.rows
        ]
        return Job(
            value=(report, text),
            latencies=[self.speed.busy(start, end) for start, end in self._spans],
            mean_fitness=float(np.mean(fitness)),
            latency_windows=list(self._spans),
        )

    def check(self, job: Job, seed: int) -> Check:
        from repro.adhoc.registry import PAPER_METHOD_ORDER
        from repro.experiments import format_figure, format_table

        report, text = job.value
        check = Check(attempted=self.n_artifacts)
        check.digests["report"] = sha256_text(text)
        artifacts = [(f"table{t.table_number}", t, format_table(t)) for t in report.tables]
        artifacts += [
            (f"figure{f.figure_number}", f, format_figure(f)) for f in report.figures
        ]
        if len(artifacts) != self.n_artifacts:
            for _ in range(self.n_artifacts - len(artifacts)):
                check.fail("an artifact is missing from the report")
        for key, artifact, rendered in artifacts:
            check.digests[key] = sha256_text(rendered)
            problem = self._artifact_problem(key, artifact, PAPER_METHOD_ORDER)
            if problem is not None:
                check.fail(f"{key}: {problem}")
        keys = [key for key, _, _ in artifacts]
        mismatched = _check_reference(
            check, _load_reference(self.root, self.name, seed), keys + ["report"]
        )
        for key in mismatched:
            if key != "report":
                check.fail(f"{key}: digest differs from the stored reference")
        if mismatched == ["report"]:
            # The report is the artifacts plus a header: a difference
            # outside every artifact still fails the job.
            check.fail("report: digest differs from the stored reference")
        check.failed = min(check.failed, check.attempted)
        return check

    def _artifact_problem(self, key, artifact, methods) -> "str | None":
        spec = artifact.spec
        if key.startswith("table"):
            if tuple(row.method for row in artifact.rows) != tuple(methods):
                return "rows are not the paper's seven methods"
            for row in artifact.rows:
                if not (
                    0 < row.giant_by_ga <= spec.n_routers
                    and 0 < row.giant_standalone <= spec.n_routers
                    and 0 <= row.coverage_by_ga <= spec.n_clients
                    and 0 <= row.coverage_standalone <= spec.n_clients
                ):
                    return f"{row.method}: a value is out of range"
            return None
        last_x = self.scale.n_generations if key != "figure4" else self.scale.ns_phases
        for series in artifact.series:
            if not series.x or list(series.x) != sorted(set(series.x)):
                return f"{series.label}: x values are not increasing"
            if series.x[-1] > last_x:
                return f"{series.label}: runs past the configured length"
            if not all(0 < giant <= spec.n_routers for giant in series.giant_sizes):
                return f"{series.label}: a giant size is out of range"
        return None

    def teardown(self) -> None:
        return None


# ----------------------------------------------------------------------
# fleet-city
# ----------------------------------------------------------------------


class FleetCity:
    """A 2 scenarios x 2 solvers x 8 seeds fleet on a city instance.

    Eight replicates per cell (the CLI's default ``--seeds``) average out
    most of the seed-to-seed spread of a four-replicate fleet.  Every
    step searches exactly ``budget`` phases (``stall_phases`` equals the
    budget, so no chain stops early): with a 32-phase budget and stalls
    of 8, the number of evaluations, and with it the job's time, moved
    by a sixth from seed to seed.
    """

    name = "fleet-city"
    unit = "candidate evaluation (per scenario step and replicate, both solvers)"
    same_inputs = True
    job_seconds = 21.0
    steps = 4
    n_seeds = 8
    budget = 16
    workers = 2
    solvers = ("search:swap", "search:random")

    def __init__(self, root: Path) -> None:
        self.root = root
        self.speed = SpeedLog(enabled=False)
        self.work = root / ".perfbench" / "work"

    def _solver_axis(self):
        return [
            (spec, {"n_candidates": 16, "stall_phases": self.budget})
            for spec in self.solvers
        ]

    def setup(self, seed: int) -> None:
        from repro.instances.catalog import city_spec
        from repro.scenario import Scenario
        from repro.scenario.fleet import ScenarioFleet

        self.problem = city_spec(256, 20000).generate()
        self.scenarios = [
            Scenario.client_drift(self.problem, self.steps, sigma=2.0),
            Scenario.router_outages(self.problem, self.steps, count=1),
        ]
        self.fleet = ScenarioFleet(
            self.scenarios,
            self._solver_axis(),
            n_seeds=self.n_seeds,
            budget=self.budget,
            warm=True,
            workers=self.workers,
        )
        # Warm-up: forks the pool, publishes the instance and loads the
        # kernels in every worker.  Same scenarios, so the timed job's
        # broadcasts are registry hits.
        ScenarioFleet(
            self.scenarios,
            self._solver_axis(),
            n_seeds=self.workers,
            budget=2,
            warm=True,
            workers=self.workers,
        ).run(seed=seed + 1_000_003)

    def run(self, seed: int, index: int) -> Job:
        from repro.resilience import SupervisionReport

        directory = self.work / f"checkpoint-{os.getpid()}-{seed}-{index}"
        if directory.exists():
            shutil.rmtree(directory)
        directory.parent.mkdir(parents=True, exist_ok=True)
        supervision = SupervisionReport()
        # The pool workers do the work; this process waits, so it
        # samples the host's speed from a thread meanwhile.
        self.speed.start_sampler()
        try:
            report = self.fleet.run(
                seed=seed, checkpoint=str(directory), report=supervision
            )
        finally:
            self.speed.stop_sampler()
        checkpoint_bytes = sum(
            path.stat().st_size for path in directory.rglob("*") if path.is_file()
        )
        shutil.rmtree(directory)
        # A step's seconds are its lockstep batch's wall time shared out
        # over the replicates.  search:random costs about 0.55 ms an
        # evaluation and search:swap 1.1-1.8, so over per-solver samples
        # the median fell in the gap between the two and jumped across
        # it from seed to seed.  A sample is one (scenario, replicate,
        # step) of both solvers: their seconds over their evaluations.
        pooled: dict[tuple, list[float]] = {}
        for run in report.runs:
            for item in run.result.steps:
                key = (run.scenario, run.replicate, item.step.index)
                entry = pooled.setdefault(key, [0.0, 0])
                entry[0] += item.seconds
                entry[1] += item.result.n_evaluations
        latencies = [seconds / evaluations for seconds, evaluations in pooled.values()]
        finals = [run.result.steps[-1].result.best.fitness for run in report.runs]
        return Job(
            value=report,
            latencies=latencies,
            mean_fitness=float(np.mean(finals)),
            layers={
                "resilience.retries": len(supervision.failures),
                "resilience.degraded": len(supervision.degraded),
                "resilience.checkpoint_bytes": checkpoint_bytes,
            },
        )

    @staticmethod
    def triple_key(run) -> str:
        return f"{run.scenario}|{run.solver}|{run.arm}|{run.replicate}"

    @staticmethod
    def triple_signature(run) -> str:
        steps = [
            [
                item.step.index,
                item.step.event,
                repr(item.result.best.fitness),
                item.result.best.giant_size,
                item.result.best.covered_clients,
                item.result.n_evaluations,
                [list(cell) for cell in item.result.best.placement.cells],
            ]
            for item in run.result.steps
        ]
        return sha256_text(json.dumps(steps))

    def check(self, job: Job, seed: int) -> Check:
        from repro.core.evaluation import Evaluator
        from repro.scenario.fleet import fleet_seed_grid

        report = job.value
        expected = len(self.scenarios) * len(self.solvers) * self.n_seeds
        check = Check(attempted=expected)
        runs = {self.triple_key(run): run for run in report.runs}
        for _ in range(expected - len(runs)):
            check.fail("a triple is missing from the fleet report")
        grid = fleet_seed_grid(seed, self.fleet.n_cells, self.n_seeds)
        final_problems = {}
        for scenario_index, scenario in enumerate(self.scenarios):
            for solver_index, spec in enumerate(self.solvers):
                cell = scenario_index * len(self.solvers) + solver_index
                steps = scenario.unfold(grid[cell][0])
                final_problems[(scenario.name, spec)] = (len(steps), steps[-1].problem)
        for key, run in runs.items():
            check.digests[key] = self.triple_signature(run)
            n_steps, problem = final_problems[(run.scenario, run.solver)]
            final = run.result.steps[-1].result.best
            if len(run.result.steps) != n_steps:
                check.fail(f"{key}: {len(run.result.steps)} steps, expected {n_steps}")
                continue
            remeasured = Evaluator(problem).evaluate(final.placement)
            if remeasured.fitness != final.fitness:
                check.fail(
                    f"{key}: final fitness {final.fitness!r} re-measures to "
                    f"{remeasured.fitness!r}"
                )
        triples = sorted(check.digests)
        check.digests["fleet"] = sha256_text("".join(check.digests[k] for k in triples))
        reference = _load_reference(self.root, self.name, seed)
        for key in _check_reference(check, reference, triples):
            check.fail(f"{key}: signature differs from the stored reference")
        check.failed = min(check.failed, check.attempted)
        return check

    def teardown(self) -> None:
        from repro.parallel import shutdown_runtime

        shutdown_runtime()
        if self.work.exists() and not any(self.work.iterdir()):
            self.work.rmdir()


# ----------------------------------------------------------------------
# live-drift
# ----------------------------------------------------------------------


class LiveDrift:
    """Sessions of client-drift events served under a 250 ms SLA.

    One job is one session: ``LiveRunner.run_steps`` over a fresh drift
    walk, whose first event is a cold solve and whose other events are
    warm re-solves arriving every ``interval`` seconds whether or not
    the previous one finished.  Each solve is capped at ``budget``
    phases, so a session's cold start queues a few events, not the
    whole session.  A run serves sessions ``0, 1, ...`` (three in 20
    seconds); latencies pool over all of them.

    The first five to seven events of a session take two to three
    times a settled event's solve (the walk's early searches run their
    full budget).  In 100-event sessions they were the top 5-7% of the
    samples, so p95 fell on the edge between the two groups and jumped
    between them from run to run; in 300-event sessions they are about
    2% and p95 lies inside the settled events' tail.

    The runner times its events on the process clock, so the host's
    speed sets its queue: calibration blocks fall between events (see
    :class:`_ReadTimedSteps`) and latencies are scaled afterwards.
    """

    name = "live-drift"
    unit = "event"
    same_inputs = False
    job_seconds = 6.5
    sla = 0.25
    #: Utilization (mean warm solve / interval) about 0.2 (mean warm
    #: solve 15-20 ms).  At 0.7 (30 ms) the queue behind each session's
    #: slow first events set p95, which ranged over 55-223 ms across
    #: five seeds; at 0.4 (45 ms), minutes in which the hypervisor stole
    #: 40% of the CPU doubled the solves and overloaded the queue (p50
    #: 80-240 ms in four runs in a row).
    interval = 0.09
    session_events = 300
    candidates = 16
    stall = 8
    budget = 12
    #: The search's own streams are fixed per session; the workload seed
    #: draws the events, so runs compare one search on other inputs.
    solver_seed = 20090622

    def __init__(self, root: Path) -> None:
        self.root = root
        self.speed = SpeedLog(enabled=False)

    def _runner(self):
        from repro.anytime import LiveRunner

        return LiveRunner(
            "search:swap",
            sla=self.sla,
            interval=self.interval,
            budget=self.budget,
            n_candidates=self.candidates,
            stall_phases=self.stall,
        )

    def _steps(self, seed: int, session: int) -> list:
        """Session ``session``'s events: a drift walk drawn from the seed."""
        from repro.scenario import Scenario

        scenario = Scenario.client_drift(self.problem, self.session_events, sigma=2.0)
        return scenario.unfold((seed, session))

    def setup(self, seed: int) -> None:
        from repro.instances.catalog import paper_normal

        self.problem = paper_normal().generate()
        warmup = _ReadTimedSteps(self._steps(seed, 1_000_003)[:20], self.speed)
        self._runner().run_steps(warmup, seed=(self.solver_seed, 1_000_003))

    def run(self, seed: int, index: int) -> Job:
        from repro.anytime.deadline import DEFAULT_CLOCK

        steps = _ReadTimedSteps(self._steps(seed, index), self.speed)
        report = self._runner().run_steps(
            steps,
            seed=(self.solver_seed, index),
            scenario_name=f"drift-session-{index}",
        )
        windows = steps.windows(DEFAULT_CLOCK.now())
        events = report.events
        responded = report.responded
        return Job(
            value=(index, report),
            latencies=report.latencies(),
            mean_fitness=report.mean_fitness(),
            latency_windows=[windows[event.index] for event in responded],
            layers={
                "anytime.shed": report.shed_count,
                "anytime.late": report.sla_violations(),
                "anytime.deadline_hits": report.deadline_hits,
                "anytime.rung_full": report.rung_counts().get("full", 0),
                "anytime.events": len(events),
                "anytime.queue_lag_ms": [(e.started - e.arrival) * 1e3 for e in responded],
                "anytime.solve_ms": [(e.finished - e.started) * 1e3 for e in responded],
            },
        )

    def check(self, job: Job, seed: int) -> Check:
        from repro.core.evaluation import Evaluator

        session, report = job.value
        check = Check(attempted=len(report.events))
        steps = self._steps(seed, session)
        seen = sorted(event.index for event in report.events)
        if seen != [step.index for step in steps]:
            check.fail(f"session {session}: events do not match the steps")
        for event in report.events:
            if event.shed:
                check.missed += 1
                continue
            best = event.result.best
            fitness = Evaluator(steps[event.index].problem).evaluate(best.placement).fitness
            if fitness != best.fitness:
                check.fail(
                    f"session {session} event {event.index}: fitness "
                    f"{best.fitness!r} re-measures to {fitness!r}"
                )
            elif event.latency > self.sla:
                check.missed += 1
        check.failed = min(check.failed, check.attempted)
        return check

    def teardown(self) -> None:
        return None


class _ReadTimedSteps(Sequence):
    """A session's steps, which time the runner's first read of each.

    ``LiveRunner.run_steps`` reads step ``i`` just before it starts
    timing event ``i``, so a calibration block taken on that read lies
    outside every solve and the runner's timeline; the read times place
    each event's solve in time, to scale its latency by the host speed
    there.
    """

    def __init__(self, steps, speed: SpeedLog) -> None:
        self._steps = list(steps)
        self._speed = speed
        self._reads: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._steps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._steps[index]
        index = range(len(self._steps))[index]
        if index not in self._reads:
            from repro.anytime.deadline import DEFAULT_CLOCK

            self._speed.maybe_calibrate()
            self._reads[index] = DEFAULT_CLOCK.now()
        return self._steps[index]

    def windows(self, end: float) -> dict[int, tuple[float, float]]:
        """Per step read: from its read to the next one (or ``end``)."""
        reads = sorted(self._reads.items(), key=lambda item: item[1])
        ends = [when for _, when in reads[1:]] + [end]
        return {index: (when, until) for (index, when), until in zip(reads, ends)}


WORKLOADS = ("reproduce", "fleet-city", "live-drift")


def make_workload(name: str, root: Path):
    """The workload called ``name``."""
    if name == "reproduce":
        return Reproduce(root)
    if name == "fleet-city":
        return FleetCity(root)
    if name == "live-drift":
        return LiveDrift(root)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
