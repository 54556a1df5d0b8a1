"""Record the reference output digests of the deterministic workloads.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py --workload reproduce --seeds 0-15

Runs the workload's job once per seed, refuses to record a seed whose
outputs fail their own checks, and stores the digests in
``perfbench/reference.json``; every later run with a recorded seed must
reproduce them exactly (engine tiers are bit-identical by contract).
Re-record only when a change is meant to alter the program's results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/make_reference.py")
    parser.add_argument("--workload", choices=("reproduce", "fleet-city"), required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-15")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import make_workload

    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    recorded = table.setdefault(args.workload, {})
    # The checks below read the stored table: drop the seeds this run
    # defines so they are checked against no reference.
    for seed in args.seeds:
        recorded.pop(str(seed), None)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    workload = make_workload(args.workload, ROOT)
    workload.setup(args.seeds[0])
    try:
        for seed in args.seeds:
            check = workload.check(workload.run(seed, 0), seed)
            if check.failed:
                print(f"seed {seed}: not recorded: {check.problems}", file=sys.stderr)
                return 1
            recorded[str(seed)] = check.digests
            print(f"seed {seed}: {len(check.digests)} digests", flush=True)
    finally:
        workload.teardown()
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
