"""Benchmark entry point: one workload, its metrics, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/workloads.py``): ``reproduce``, ``fleet-city``,
``live-drift``.  Every run checks the program's outputs and prints, as
its last line, ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (``BENCHMARK.json``):
``setup_s`` is the median over ``SETUP_SAMPLES`` fresh processes, each
timed from process start through imports, instance generation, kernel
load, pool fork and broadcast, and an untimed warm-up pass; the last of
those processes then runs the timed job(s).  Times are in reference
seconds, scaled by the host speed measured beside them
(``perfbench/hostspeed.py``); the raw figures are printed as ``raw``.

``--trace 1`` reports the per-layer metrics: one untraced job process
(the baseline for the tracing overhead) and one traced job process,
whose spans are written under ``.perfbench/traces/`` as JSON lines and
Chrome trace-event JSON.  Both must produce the same output digests.

The benchmark sets no ``OMP_NUM_THREADS`` and no ``REPRO_*`` variable.
Exit status is 0 when every output check passed, 1 when one failed and
2 when the program could not be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"

#: Fresh processes whose set-up time is measured per run (median).
SETUP_SAMPLES = 3
#: Wall-clock budget of one whole run, all processes included.
RUN_BUDGET_S = 170.0

class RunFailed(RuntimeError):
    """A benchmark process failed; the run reports no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Compiler and tempfile scratch stay inside the checkout.
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def _run_child(argv: list[str], deadline: float, clock) -> None:
    """Run one benchmark process in its own session; kill it on timeout."""
    remaining = deadline - clock.now()
    if remaining <= 0:
        raise RunFailed("the run budget is spent")
    process = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{' '.join(argv[:3])} ran past the run budget") from None
    finally:
        # Also on SIGTERM (see main): the child and its pool workers go.
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
    if process.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise RunFailed(f"{' '.join(argv[:3])} exited {process.returncode}:\n{tail}")


def _job_process(args, mode: str, deadline: float, clock, index: int, trace_dir=None) -> dict:
    out = WORK / f"result-{os.getpid()}-{index}.json"
    argv = [
        "-m", "perfbench.job",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--out", str(out),
    ]
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    argv += ["--spawned-at", repr(clock.now())]
    _run_child(argv, deadline, clock)
    try:
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink()


def _prepare(deadline: float, clock) -> None:
    """Build the compiled kernels (untimed), as installing the package would."""
    _run_child(
        ["-c", "from repro.core.engine import compiled; compiled.is_available()"],
        deadline,
        clock,
    )


def _latency_metrics(samples_ms: list[float], strict_tail: bool) -> tuple[float, float, int]:
    from perfbench.stats import percentile, tail_percentile

    p50 = percentile(samples_ms, 50)
    if strict_tail:
        p95, beyond = tail_percentile(samples_ms, 95)
    else:
        p95 = percentile(samples_ms, 95)
        beyond = sum(1 for sample in samples_ms if sample > p95)
    return p50, p95, beyond


def _end_to_end(args, deadline, clock) -> tuple[dict, dict]:
    processes = [
        _job_process(args, "setup", deadline, clock, index)
        for index in range(SETUP_SAMPLES - 1)
    ]
    job = _job_process(args, "job", deadline, clock, SETUP_SAMPLES)
    processes.append(job)
    setups = [process["setup_s"] for process in processes]
    samples = job["latencies_ms"]
    # fleet-city's 80 samples a job are too few for ten beyond p95.
    strict = args.workload != "fleet-city"
    p50, p95, beyond = _latency_metrics(samples, strict_tail=strict)
    from perfbench.stats import fail_frac

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": job["wall_s"],
        "peak_rss_mb": job["peak_rss_mb"],
        "ok_frac": 1.0 - fail_frac(job["failed"], job["attempted"]),
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        "mean_fitness": job["mean_fitness"],
    }
    job["setup_samples"] = setups
    job["latency_samples"] = len(samples)
    job["latency_beyond_p95"] = beyond
    # The same figures in the host's own seconds, before scaling.
    raw = {
        "setup_s": statistics.median(process["setup_raw_s"] for process in processes),
        "wall_s": job["wall_raw_s"],
    }
    raw["latency_p50_ms"], raw["latency_p95_ms"], _ = _latency_metrics(
        job["raw_latencies_ms"], strict_tail=False
    )
    job["raw"] = json.dumps(raw, sort_keys=True)
    return metrics, job


def _per_layer(args, deadline, clock) -> tuple[dict, dict]:
    baseline = _job_process(args, "job", deadline, clock, 0)
    trace_dir = WORK / "traces" / f"{args.workload}-{args.seed}"
    if trace_dir.exists():
        shutil.rmtree(trace_dir)
    traced = _job_process(args, "job", deadline, clock, 1, trace_dir=trace_dir)
    metrics = dict(traced["layers"])
    metrics["trace.untraced_wall_s"] = baseline["wall_raw_s"]
    metrics["trace.overhead_frac"] = traced["wall_raw_s"] / baseline["wall_raw_s"] - 1.0
    traced["check_failed"] += baseline["check_failed"]
    traced["problems"] += baseline["problems"]
    if traced["digests"] != baseline["digests"]:
        traced["check_failed"] += 1
        traced["failed"] = min(traced["failed"] + 1, traced["attempted"])
        traced["problems"].append("traced and untraced runs produced different digests")
    coverage = metrics["trace.top_coverage"]
    if coverage < 0.95:
        raise RunFailed(
            f"top-level spans cover {coverage:.1%} of the traced wall time; "
            "at least 95% is required"
        )
    traced["trace_dir"] = str(trace_dir.relative_to(ROOT))
    return metrics, traced


def _units(section: str) -> dict[str, str]:
    """``{metric: unit}`` of one ``BENCHMARK.json`` metric list, in order."""
    table = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in table[section]}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM, so that _run_child stops the running process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.anytime.deadline import DEFAULT_CLOCK as clock

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    deadline = clock.now() + RUN_BUDGET_S
    try:
        _prepare(deadline, clock)
        if args.trace:
            values, detail = _per_layer(args, deadline, clock)
            units = _units("per_layer")
        else:
            values, detail = _end_to_end(args, deadline, clock)
            units = _units("end_to_end")
        missing = sorted(set(units) - set(values))
        if missing:
            raise RunFailed(f"the run did not report {', '.join(missing)}")
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    except (RunFailed, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK / "tmp", ignore_errors=True)

    correct = detail["check_failed"] == 0
    print(f"workload {args.workload} seed {args.seed} ({detail['unit']} latencies)")
    print(f"host {json.dumps(detail['host'], sort_keys=True)}")
    print(f"digests reference={detail['reference']} {json.dumps(detail['digests'], sort_keys=True)}")
    for key in (
        "setup_samples",
        "latency_samples",
        "latency_beyond_p95",
        "jobs",
        "calibration_blocks",
        "raw",
        "rss_children",
        "trace_dir",
    ):
        if key in detail:
            print(f"{key} {detail[key]}")
    for problem in detail["problems"]:
        print(f"check failed: {problem}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
