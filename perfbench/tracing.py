"""Span recorder for the traced benchmark run.

The benchmark measures layers from the outside: :func:`install` wraps
the public functions and methods each layer exposes (table
:data:`SPANS`) so that every call records a span — name, start, end,
parent span and a job id shared by all spans of one job.  Spans and
counters stay in memory and are written out when the run ends, as JSON
lines and as Chrome trace-event JSON (readable by Perfetto).

Process pools fork after :func:`install`, so workers inherit the
wrappers.  :func:`repro.parallel.run_tasks` is wrapped to hand each task
to the pool inside a :class:`TracedTask`, which records the worker's
spans under the dispatching span and appends them, after each task, to
a buffer file keyed by the worker's pid; :meth:`Tracer.merge_workers`
reads those back in the parent.

The wrappers change no result: each calls the original with the same
arguments and returns its value unchanged.  A call nested directly in a
span of the same name (a composite operator calling its parts, a
subclass calling ``super()``) is folded into the outer span.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.anytime.deadline import DEFAULT_CLOCK

from perfbench.stats import self_time, union_length

__all__ = [
    "SPANS",
    "Span",
    "TracedTask",
    "Tracer",
    "install",
    "layer_summary",
    "top_level_coverage",
]

#: The innermost open span of this context: ``(span id, name)``.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: The tracer :func:`install` bound the wrappers to (one per process;
#: forked workers inherit it).  :class:`TracedTask` looks it up here
#: because the task object itself travels to the worker by pickle.
_ACTIVE: "Tracer | None" = None


@dataclass(frozen=True)
class Span:
    """One finished span."""

    span_id: str
    parent: "str | None"
    name: str
    start: float
    end: float
    job: str
    pid: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "job": self.job,
            "pid": self.pid,
        }


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self, worker_dir: Path) -> None:
        self.pid = os.getpid()
        self.job = "setup"
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], float] = {}
        self.worker_dir = Path(worker_dir)
        self._serial = 0

    # -- recording ----------------------------------------------------

    def _new_id(self) -> str:
        self._serial += 1
        return f"{self.pid}:{self._serial}"

    def add(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` of the current job."""
        key = (self.job, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def counter(self, name: str) -> float:
        return self.counters.get((self.job, name), 0)

    def call(self, name: str, fn: Callable, args, kwargs, parent=None, after=None):
        """``fn(*args, **kwargs)`` inside a span called ``name``.

        ``parent`` overrides the context's open span (the worker side of
        a dispatched task names its dispatching span explicitly).
        ``after(tracer, args, kwargs, result)`` updates counters once the
        span closes; a call folded into an outer span of the same name
        records nothing, so the outer call alone is counted.
        """
        current = _CURRENT.get()
        if parent is None and current is not None and current[1] == name:
            return fn(*args, **kwargs)
        span_id = self._new_id()
        parent_id = parent if parent is not None else (
            current[0] if current is not None else None
        )
        token = _CURRENT.set((span_id, name))
        start = DEFAULT_CLOCK.now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = DEFAULT_CLOCK.now()
            _CURRENT.reset(token)
            self.spans.append(
                Span(span_id, parent_id, name, start, end, self.job, self.pid)
            )
        if after is not None:
            after(self, args, kwargs, result)
        return result

    def root(self, job: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root span of job ``job``; returns its value."""
        previous = self.job
        self.job = job
        token = _CURRENT.set(None)
        try:
            return self.call(job, fn, args, kwargs)
        finally:
            _CURRENT.reset(token)
            self.job = previous

    # -- worker buffers -----------------------------------------------

    def adopt_fork(self) -> None:
        """Drop the parent's buffers inherited by a freshly forked worker."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.counters = {}
            self._serial = 0

    def flush_worker(self) -> None:
        """Append this worker's spans and counters to its pid's buffer."""
        path = self.worker_dir / f"worker-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps({"span": span.as_dict()}) + "\n")
            for (job, name), value in self.counters.items():
                stream.write(json.dumps({"counter": [job, name, value]}) + "\n")
        self.spans = []
        self.counters = {}

    def merge_workers(self) -> int:
        """Read every worker buffer into this tracer; returns files read."""
        paths = sorted(self.worker_dir.glob("worker-*.jsonl"))
        for path in paths:
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                if "span" in record:
                    fields = record["span"]
                    self.spans.append(
                        Span(
                            fields["id"], fields["parent"], fields["name"],
                            fields["start"], fields["end"], fields["job"],
                            fields["pid"],
                        )
                    )
                else:
                    job, name, value = record["counter"]
                    key = (job, name)
                    self.counters[key] = self.counters.get(key, 0) + value
            path.unlink()
        return len(paths)

    # -- export -------------------------------------------------------

    def export(self, directory: Path) -> tuple[Path, Path]:
        """Write ``spans.jsonl`` and ``trace.json`` (Chrome trace events)."""
        directory.mkdir(parents=True, exist_ok=True)
        jsonl = directory / "spans.jsonl"
        with jsonl.open("w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(span.as_dict()) + "\n")
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.pid,
                "tid": span.pid,
                "args": {"id": span.span_id, "parent": span.parent, "job": span.job},
            }
            for span in self.spans
        ]
        chrome = directory / "trace.json"
        chrome.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
        return jsonl, chrome


class TracedTask:
    """A pool task runner that records the task as a span.

    Picklable (the runner is a top-level function); on the worker side
    the task's spans join the dispatching job and are flushed to the
    worker's buffer file after each task.
    """

    def __init__(self, runner: Callable, job: str, parent: str, origin: int) -> None:
        self.runner = runner
        self.job = job
        self.parent = parent
        self.origin = origin

    def __call__(self, task):
        tracer = _ACTIVE
        if tracer is None:
            raise RuntimeError("a traced task ran in a process without a tracer")
        tracer.adopt_fork()
        previous = tracer.job
        tracer.job = self.job
        try:
            return tracer.call(
                "parallel.task", self.runner, (task,), {}, parent=self.parent
            )
        finally:
            tracer.job = previous
            if os.getpid() != self.origin:
                tracer.flush_worker()


# ----------------------------------------------------------------------
# Wrapper table
# ----------------------------------------------------------------------


def _stack_rows(stack) -> int:
    """K of a ``(K, N, 2)`` position stack or of a placement sequence."""
    shape = getattr(stack, "shape", None)
    return int(shape[0]) if shape is not None else len(stack)


def _count_stack(tracer: Tracer, problem, k: int) -> None:
    n, m = problem.n_routers, problem.n_clients
    tracer.add("engine.stack_rows", k)
    tracer.add("engine.range_tests", k * (n * n + m * n))


def _after_batch_stack(tracer, args, kwargs, result) -> None:
    problem = args[0] if args else kwargs["problem"]
    positions = args[2] if len(args) > 2 else kwargs["positions"]
    _count_stack(tracer, problem, _stack_rows(positions))


def _after_method_stack(tracer, args, kwargs, result) -> None:
    stack = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    _count_stack(tracer, args[0].problem, _stack_rows(stack))


def _after_lockstep_stack(tracer, args, kwargs, result) -> None:
    _after_method_stack(tracer, args, kwargs, result)
    tracer.add("neighborhood.candidates", len(result))


def _after_evaluate(tracer, args, kwargs, result) -> None:
    tracer.add("core.evaluate_rows", 1)


def _after_evaluate_many(tracer, args, kwargs, result) -> None:
    tracer.add("core.evaluate_rows", len(result))


def _after_repair(tracer, args, kwargs, result) -> None:
    cells = args[1]
    tracer.add("genetic.repair_cells", len(cells))
    tracer.add(
        "genetic.repair_moved",
        sum(1 for before, after in zip(cells, result) if before != after),
    )


def _after_propose_batch(tracer, args, kwargs, result) -> None:
    tracer.add("neighborhood.phases", 1)


def _after_measure_phase(tracer, args, kwargs, result) -> None:
    tracer.add("neighborhood.candidates", len(result))


def _after_commit(tracer, args, kwargs, result) -> None:
    tracer.add("neighborhood.commits", 1)


#: ``(span name, module, class or None, attribute, after-hook)``.  A class
#: entry wraps the method on the class and on every loaded subclass that
#: overrides it; a function entry rebinds every ``repro`` module's
#: reference to the function.
SPANS: tuple = (
    ("experiments.study", "repro.experiments.study", None, "run_distribution_study", None),
    ("experiments.ns_figure", "repro.experiments.figures", None, "run_ns_figure", None),
    ("experiments.render", "repro.experiments.runner", "ReproductionReport", "render_text", None),
    ("genetic.select", "repro.genetic.selection", "SelectionOperator", "select_pair", None),
    ("genetic.crossover", "repro.genetic.crossover", "CrossoverOperator", "crossover", None),
    ("genetic.mutate", "repro.genetic.mutation", "MutationOperator", "mutate", None),
    ("genetic.population", "repro.genetic.population", "Population", "diversity", None),
    ("genetic.population", "repro.genetic.population", "Population", "mean_fitness", None),
    ("adhoc.place", "repro.adhoc.base", "AdHocMethod", "place", None),
    ("core.evaluate", "repro.core.evaluation", "Evaluator", "evaluate", _after_evaluate),
    ("core.evaluate", "repro.core.evaluation", "Evaluator", "evaluate_many", _after_evaluate_many),
    ("core.density_rank", "repro.core.density", "DensityMap", "ranked_windows", None),
    ("neighborhood.propose", "repro.neighborhood.movements", "MovementType", "propose", None),
    ("neighborhood.propose", "repro.neighborhood.movements", "MovementType", "propose_batch", _after_propose_batch),
    ("engine.measure_stack", "repro.core.engine.batch", None, "measure_stack", _after_batch_stack),
    ("engine.measure_stack", "repro.core.engine.compiled", "CompiledEngine", "measure_stack", _after_method_stack),
    ("engine.measure_stack", "repro.core.engine.stacked", "StackedEngine", "measure_positions", _after_lockstep_stack),
    ("engine.measure_stack", "repro.core.engine.stacked", "StackedEngine", "measure_placements", _after_lockstep_stack),
    ("engine.measure_phase", "repro.core.engine.stacked", "StackedDeltaEngine", "measure_phase", _after_measure_phase),
    ("engine.commit", "repro.core.engine.stacked", "StackedDeltaEngine", "commit_chain", _after_commit),
    ("engine.chain_reset", "repro.core.engine.stacked", "StackedDeltaEngine", "reset_chain", None),
    ("scenario.unfold", "repro.scenario.scenario", "Scenario", "unfold", None),
    ("solvers.solve", "repro.solvers.base", "Solver", "solve", None),
    ("solvers.solve", "repro.solvers.base", "Solver", "solve_batch", None),
    ("parallel.broadcast", "repro.parallel.runtime", "ParallelRuntime", "broadcast", None),
    ("resilience.checkpoint_write", "repro.resilience.checkpoint", "CheckpointStore", "save", None),
)

#: Modules whose subclasses must be loaded before methods are wrapped.
_SUBCLASS_MODULES = (
    "repro",
    "repro.adhoc",
    "repro.genetic",
    "repro.neighborhood",
    "repro.neighborhood.multichain",
    "repro.solvers.adapters",
    "repro.core.engine",
)


def _subclasses(cls) -> list:
    found = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def _rebind_function(module_name: str, attr: str, make: Callable, only_here=False) -> int:
    module = importlib.import_module(module_name)
    original = getattr(module, attr)  # AttributeError: the layer moved
    wrapper = make(original)
    modules = [module] if only_here else [
        loaded
        for name, loaded in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and loaded is not None
    ]
    rebound = 0
    for loaded in modules:
        if getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapper)
            rebound += 1
    return rebound


def _wrap_method(module_name: str, class_name: str, attr: str, make: Callable) -> int:
    cls = getattr(importlib.import_module(module_name), class_name)
    if attr not in vars(cls):
        raise AttributeError(f"{module_name}.{class_name} defines no {attr!r}")
    targets = [cls] + [sub for sub in _subclasses(cls) if attr in vars(sub)]
    for target in targets:
        setattr(target, attr, make(vars(target)[attr]))
    return len(targets)


def _span_wrapper(tracer: Tracer, name: str, after) -> Callable:
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, after=after)

        return wrapper

    return make


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer boundary; returns the wrapped targets.

    Raises when a wrapped name no longer exists, so a renamed layer
    fails the traced run instead of reporting zeros.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("the layer wrappers are already installed")
    for module_name in _SUBCLASS_MODULES:
        importlib.import_module(module_name)
    wrapped: list[str] = []
    for name, module_name, class_name, attr, after in SPANS:
        make = _span_wrapper(tracer, name, after)
        if class_name is None:
            count = _rebind_function(module_name, attr, make)
        else:
            count = _wrap_method(module_name, class_name, attr, make)
        if count == 0:
            raise AttributeError(f"nothing bound to {module_name}.{attr}")
        wrapped.append(f"{module_name}.{class_name or ''}.{attr}")

    # Collision repair after crossover only: the ad hoc methods' own
    # pattern repair stays inside their placement spans.
    _rebind_function(
        "repro.genetic.crossover",
        "resolve_collisions",
        _span_wrapper(tracer, "genetic.repair", _after_repair),
        only_here=True,
    )
    wrapped.append("repro.genetic.crossover.resolve_collisions")

    def make_placement_counter(original):
        @functools.wraps(original)
        def wrapper(self):
            original(self)
            tracer.add("core.placements_built", 1)

        return wrapper

    _wrap_method("repro.core.solution", "Placement", "__post_init__", make_placement_counter)
    wrapped.append("repro.core.solution.Placement.__post_init__")

    def make_phase_counter(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            current = args[1] if len(args) > 1 else kwargs["current"]
            rows_before = tracer.counter("core.evaluate_rows")
            result = original(*args, **kwargs)
            tracer.add("neighborhood.phases", 1)
            tracer.add(
                "neighborhood.candidates",
                tracer.counter("core.evaluate_rows") - rows_before,
            )
            if result is not None and result.fitness > current.fitness:
                tracer.add("neighborhood.commits", 1)
            return result

        return wrapper

    _rebind_function("repro.neighborhood.best_neighbor", "best_neighbor", make_phase_counter)
    wrapped.append("repro.neighborhood.best_neighbor.best_neighbor")

    def make_dispatch(original):
        @functools.wraps(original)
        def wrapper(runner, tasks, workers, **kwargs):
            tracer.add("parallel.tasks", len(tasks))

            def dispatch():
                task = TracedTask(runner, tracer.job, _CURRENT.get()[0], tracer.pid)
                return original(task, tasks, workers, **kwargs)

            return tracer.call("parallel.dispatch", dispatch, (), {})

        return wrapper

    _rebind_function("repro.parallel", "run_tasks", make_dispatch)
    wrapped.append("repro.parallel.run_tasks")
    _ACTIVE = tracer
    return wrapped


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def _children(spans: list[Span]) -> dict[str, list[tuple[float, float]]]:
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return children


def layer_summary(spans: list[Span], job: str) -> dict[str, dict]:
    """Per span name: ``calls``, total ``seconds`` and ``self_seconds``.

    Only spans of ``job`` count; self time is a span's duration minus
    the part of it covered by its child spans (worker task spans count
    as children of their dispatching span).
    """
    selected = [span for span in spans if span.job == job]
    children = _children(selected)
    summary: dict[str, dict] = {}
    for span in selected:
        entry = summary.setdefault(
            span.name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        entry["calls"] += 1
        entry["seconds"] += span.duration
        entry["self_seconds"] += self_time(
            span.start, span.end, children.get(span.span_id, ())
        )
    return summary


def top_level_coverage(spans: list[Span], job: str) -> float:
    """Share of the job's root span covered by its direct children."""
    roots = [s for s in spans if s.job == job and s.name == job and s.parent is None]
    if len(roots) != 1:
        raise ValueError(f"expected one root span for job {job!r}, got {len(roots)}")
    root = roots[0]
    covered = union_length(
        (max(root.start, s.start), min(root.end, s.end))
        for s in spans
        if s.parent == root.span_id
    )
    return covered / root.duration
