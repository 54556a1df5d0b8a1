"""One benchmark process: set up a workload, optionally time a job.

Started by ``perfbench/run.py`` as ``python -m perfbench.job``; not a
user entry point.  ``--spawned-at`` is the parent's clock reading just
before it started this process, so ``setup_s`` spans interpreter start,
imports, instance generation, kernel load, pool fork and broadcast, and
the warm-up pass.  The result is written as JSON to ``--out``.

Timed intervals are reported in reference seconds
(``perfbench/hostspeed.py``): calibration blocks are taken when the
process starts, after set-up and after every job (and, by the
workloads, inside their jobs), and every interval is scaled by the
host speed they measured around it.  The raw seconds are kept beside.

With ``--trace-dir`` the layer wrappers are installed before anything
else runs (so forked pool workers inherit them) and the job's spans are
written to that directory; a traced process takes no calibration
blocks and reports its times as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNEL_DIR = ROOT / "src" / "repro" / "core" / "engine" / "_build"


def _kernels_built() -> bool:
    return KERNEL_DIR.is_dir() and any(KERNEL_DIR.glob("repro_kernels_*.so"))


def _vm_hwm_kb(pid: "int | str") -> int:
    """Peak resident set (``VmHWM``) of a live process, in kB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _child_pids() -> list[int]:
    pids: list[int] = []
    for path in Path("/proc/self/task").glob("*/children"):
        pids.extend(int(pid) for pid in path.read_text().split())
    return pids


def peak_rss_mb() -> tuple[float, int]:
    """Peak RSS of this process plus its live children, and their count.

    Persistent pool workers are never reaped while the pool is warm, so
    ``RUSAGE_CHILDREN`` misses them; their ``VmHWM`` is read directly.
    """
    total = _vm_hwm_kb("self")
    live = 0
    for pid in _child_pids():
        try:
            total += _vm_hwm_kb(pid)
        except FileNotFoundError:
            live -= 1  # exited between listing and reading
        live += 1
    return total / 1024.0, live


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker this process may have started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _host(workload, kernels_before: bool) -> dict:
    from repro.core.engine import compiled
    from repro.core.engine.dispatch import resolve_engine

    available = compiled.is_available()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "compiled_available": available,
        "compiled_build_error": compiled.build_error(),
        "compiled_openmp": compiled.has_openmp() if available else False,
        "engine_auto": resolve_engine(workload.problem, "auto"),
        "kernel_compiled_in_setup": not kernels_before and _kernels_built(),
        "python": sys.version.split()[0],
    }


def _layer_metrics(tracer, job, wall_s: float) -> dict:
    from repro.parallel import get_runtime

    from perfbench.tracing import layer_summary, top_level_coverage

    workers = tracer.merge_workers()
    summary = layer_summary(tracer.spans, "job")

    def self_s(name):
        return summary.get(name, {}).get("self_seconds", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def count(name):
        return tracer.counters.get(("job", name), 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    stats = get_runtime().stats
    task_busy = summary.get("parallel.task", {}).get("seconds", 0.0)
    dispatch = summary.get("parallel.dispatch", {}).get("seconds", 0.0)
    layers = job.layers
    metrics = {
        "genetic.select_s": self_s("genetic.select"),
        "genetic.select_calls": calls("genetic.select"),
        "genetic.crossover_s": self_s("genetic.crossover"),
        "genetic.crossover_calls": calls("genetic.crossover"),
        "genetic.repair_s": self_s("genetic.repair"),
        "genetic.repair_calls": calls("genetic.repair"),
        "genetic.repair_cells": count("genetic.repair_cells"),
        "genetic.repair_moved_ratio": ratio(
            count("genetic.repair_moved"), count("genetic.repair_cells")
        ),
        "genetic.mutate_s": self_s("genetic.mutate"),
        "genetic.mutate_calls": calls("genetic.mutate"),
        "genetic.population_s": self_s("genetic.population"),
        "genetic.population_calls": calls("genetic.population"),
        "adhoc.place_s": self_s("adhoc.place"),
        "adhoc.place_calls": calls("adhoc.place"),
        "core.placements_built": count("core.placements_built"),
        "core.evaluate_s": self_s("core.evaluate"),
        "core.evaluate_rows": count("core.evaluate_rows"),
        "core.density_rank_s": self_s("core.density_rank"),
        "core.density_rank_calls": calls("core.density_rank"),
        "neighborhood.propose_s": self_s("neighborhood.propose"),
        "neighborhood.candidates": count("neighborhood.candidates"),
        "neighborhood.phases": count("neighborhood.phases"),
        "neighborhood.accept_ratio": ratio(
            count("neighborhood.commits"), count("neighborhood.candidates")
        ),
        "engine.measure_stack_s": self_s("engine.measure_stack"),
        "engine.measure_stack_calls": calls("engine.measure_stack"),
        "engine.stack_rows": count("engine.stack_rows"),
        "engine.range_tests": count("engine.range_tests"),
        "engine.measure_phase_s": self_s("engine.measure_phase"),
        "engine.commit_s": self_s("engine.commit"),
        "engine.commits": calls("engine.commit"),
        "engine.chain_reset_s": self_s("engine.chain_reset"),
        "engine.chain_resets": calls("engine.chain_reset"),
        "scenario.unfold_s": self_s("scenario.unfold"),
        "solvers.solve_s": self_s("solvers.solve"),
        "solvers.solve_calls": calls("solvers.solve"),
        "parallel.dispatch_s": self_s("parallel.dispatch"),
        "parallel.tasks": count("parallel.tasks"),
        "parallel.task_wait_s": (
            max(0.0, dispatch - task_busy / max(1, workers)) if dispatch else 0.0
        ),
        "parallel.broadcast_s": self_s("parallel.broadcast"),
        "parallel.publishes": stats.publishes,
        "parallel.broadcast_hits": stats.broadcast_hits,
        "parallel.pool_creates": stats.pool_creates,
        "resilience.retries": layers.get("resilience.retries", 0),
        "resilience.degraded": layers.get("resilience.degraded", 0),
        "resilience.checkpoint_write_s": self_s("resilience.checkpoint_write"),
        "resilience.checkpoint_writes": calls("resilience.checkpoint_write"),
        "resilience.checkpoint_bytes": layers.get("resilience.checkpoint_bytes", 0),
    }
    metrics.update(_anytime_metrics(layers))
    metrics["trace.wall_s"] = wall_s
    metrics["trace.top_coverage"] = top_level_coverage(tracer.spans, "job")
    metrics["trace.spans"] = sum(1 for span in tracer.spans if span.job == "job")
    metrics["trace.workers"] = workers
    return metrics


def _anytime_metrics(layers: dict) -> dict:
    from perfbench.stats import percentile

    lags = layers.get("anytime.queue_lag_ms") or [0.0]
    solves = layers.get("anytime.solve_ms") or [0.0]
    return {
        "anytime.queue_lag_p50_ms": percentile(lags, 50),
        "anytime.queue_lag_p95_ms": percentile(lags, 95),
        "anytime.solve_p50_ms": percentile(solves, 50),
        "anytime.solve_p95_ms": percentile(solves, 95),
        "anytime.shed": layers.get("anytime.shed", 0),
        "anytime.late": layers.get("anytime.late", 0),
        "anytime.deadline_hits": layers.get("anytime.deadline_hits", 0),
        "anytime.rung_full_frac": (
            layers["anytime.rung_full"] / layers["anytime.events"]
            if layers.get("anytime.events")
            else 0.0
        ),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.job")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "job"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    kernels_before = _kernels_built()
    tracer = None
    if args.trace_dir is not None:
        from perfbench.tracing import Tracer, install

        workers_dir = Path(args.trace_dir) / "workers"
        workers_dir.mkdir(parents=True, exist_ok=True)
        tracer = Tracer(workers_dir)
        install(tracer)

    from repro.anytime.deadline import DEFAULT_CLOCK

    from perfbench.hostspeed import SpeedLog
    from perfbench.workloads import make_workload

    speed = SpeedLog(enabled=tracer is None)
    speed.calibrate()
    workload = make_workload(args.workload, ROOT)
    workload.speed = speed
    if tracer is not None:
        tracer.root("setup", workload.setup, args.seed)
    else:
        workload.setup(args.seed)
    ready = DEFAULT_CLOCK.now()
    speed.calibrate()
    result: dict = {
        "setup_s": speed.scaled(args.spawned_at, ready),
        "setup_raw_s": speed.busy(args.spawned_at, ready),
        "host": _host(workload, kernels_before),
    }
    if args.mode == "setup":
        workload.teardown()
        _stop_resource_tracker()
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        return 0

    # As many jobs as fit in --seconds at the workload's usual job time,
    # a number fixed by the arguments so that a seed's inputs do not
    # depend on the host's speed; a traced run times exactly one job.
    n_jobs = 1 if tracer is not None else max(1, int(args.seconds // workload.job_seconds))
    jobs = []
    for index in range(n_jobs):
        started = DEFAULT_CLOCK.now()
        if tracer is not None:
            job = tracer.root("job", workload.run, args.seed, index)
        else:
            job = workload.run(args.seed, index)
        finished = DEFAULT_CLOCK.now()
        speed.calibrate()
        jobs.append((started, finished, job))
    rss_mb, n_children = peak_rss_mb()

    checks = [workload.check(job, args.seed) for _, _, job in jobs]
    attempted = sum(check.attempted for check in checks)
    failed = sum(check.failed for check in checks)
    missed = sum(check.missed for check in checks)
    problems = [problem for check in checks for problem in check.problems]
    for index, check in enumerate(checks[1:], start=1):
        if workload.same_inputs and check.digests != checks[0].digests:
            failed += 1
            problems.append(f"job {index} of the same seed produced other digests")
    latencies = []
    raw_latencies = []
    for started, finished, job in jobs:
        raw_latencies.extend(job.latencies)
        windows = job.latency_windows or [(started, finished)] * len(job.latencies)
        latencies.extend(
            latency * speed.factor(*window) for latency, window in zip(job.latencies, windows)
        )
    result.update(
        {
            "jobs": len(jobs),
            "wall_s": statistics.median(speed.scaled(t0, t1) for t0, t1, _ in jobs),
            "wall_raw_s": statistics.median(speed.busy(t0, t1) for t0, t1, _ in jobs),
            "peak_rss_mb": rss_mb,
            "rss_children": n_children,
            "attempted": attempted,
            "check_failed": failed,
            "failed": min(failed + missed, attempted),
            "problems": problems[:20],
            "digests": checks[0].digests,
            "reference": checks[0].reference,
            "latencies_ms": [sample * 1e3 for sample in latencies],
            "raw_latencies_ms": [sample * 1e3 for sample in raw_latencies],
            "calibration_blocks": len(speed.blocks),
            "mean_fitness": statistics.mean(job.mean_fitness for _, _, job in jobs),
            "unit": workload.unit,
        }
    )
    if tracer is not None:
        started, finished, job = jobs[0]
        result["layers"] = _layer_metrics(tracer, job, finished - started)
        tracer.export(Path(args.trace_dir))
    workload.teardown()
    _stop_resource_tracker()
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
