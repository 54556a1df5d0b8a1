"""Golden quick-scale reproduction, pinned as exact JSON.

``run_all(QUICK_SCALE, seed=1)`` regenerates Tables 1-3 and Figures
1-4.  Every table row, every figure series and the SHA-256 of the
rendered text report must match ``reproduce_golden.json`` exactly: a
change to any GA operator, ad hoc method, search move or engine tier
that perturbs the paper's numbers fails here.

Regenerate the record (only for an intended behaviour change)::

    PYTHONPATH=src python tests/experiments/test_reproduce_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import run_all
from repro.experiments.config import QUICK_SCALE

GOLDEN = Path(__file__).with_name("reproduce_golden.json")
SEED = 1


def record() -> dict:
    """Tables, figures and report digest of the quick-scale run."""
    report = run_all(QUICK_SCALE, seed=SEED)
    return {
        "tables": {
            str(table.table_number): [row.as_dict() for row in table.rows]
            for table in report.tables
        },
        "figures": {
            str(figure.figure_number): {
                series.label: {
                    "x": list(series.x),
                    "giant_sizes": list(series.giant_sizes),
                }
                for series in figure.series
            }
            for figure in report.figures
        },
        "report_sha256": hashlib.sha256(
            report.render_text().encode("utf-8")
        ).hexdigest(),
    }


@pytest.fixture(scope="module")
def observed() -> dict:
    return record()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("table", ["1", "2", "3"])
def test_table_rows_match(observed, golden, table):
    assert observed["tables"][table] == golden["tables"][table]


@pytest.mark.parametrize("figure", ["1", "2", "3", "4"])
def test_figure_series_match(observed, golden, figure):
    assert observed["figures"][figure] == golden["figures"][figure]


def test_report_text_matches(observed, golden):
    assert observed["report_sha256"] == golden["report_sha256"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
