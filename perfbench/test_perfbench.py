"""Tests of the benchmark's own helpers.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import pytest

from perfbench.hostspeed import REFERENCE_SLICE_S, Block, SpeedLog
from perfbench.stats import (
    compare_digests,
    fail_frac,
    percentile,
    self_time,
    sha256_text,
    tail_percentile,
    union_length,
)
from perfbench.tracing import Span, Tracer, layer_summary, top_level_coverage
from perfbench.workloads import Check, _check_reference, _ReadTimedSteps


class TestPercentile:
    def test_matches_linear_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([5.0], 95) == 5.0
        assert percentile(list(range(101)), 95) == 95

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_tail_rule_accepts_ten_beyond(self):
        samples = [float(i) for i in range(200)]
        value, beyond = tail_percentile(samples, 95)
        assert value == pytest.approx(189.05)
        assert beyond == 10

    def test_tail_rule_rejects_fewer_than_ten_beyond(self):
        with pytest.raises(ValueError, match="at least 10"):
            tail_percentile([float(i) for i in range(150)], 95)

    def test_tail_rule_counts_strictly_greater_samples(self):
        # Ties at the percentile are not "beyond" it.
        samples = [1.0] * 190 + [2.0] * 10
        value, beyond = tail_percentile(samples, 90)
        assert value == 1.0
        assert beyond == 10


class TestSelfTime:
    def test_no_children_is_the_duration(self):
        assert self_time(1.0, 3.0, []) == 2.0

    def test_sequential_children_are_subtracted(self):
        assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0

    def test_overlapping_children_count_once(self):
        # Two pool workers busy at the same time.
        assert self_time(0.0, 10.0, [(1.0, 6.0), (2.0, 8.0)]) == 3.0

    def test_children_are_clipped_to_the_parent(self):
        assert self_time(2.0, 4.0, [(1.0, 3.0), (3.5, 9.0)]) == pytest.approx(0.5)

    def test_never_negative(self):
        assert self_time(0.0, 1.0, [(0.0, 1.0), (0.0, 1.0)]) == 0.0

    def test_union_length_ignores_empty_intervals(self):
        assert union_length([(3.0, 3.0), (4.0, 2.0), (0.0, 1.0)]) == 1.0


class TestSpans:
    @staticmethod
    def _spans():
        return [
            Span("1:1", None, "job", 0.0, 10.0, "job", 1),
            Span("1:2", "1:1", "parallel.dispatch", 1.0, 9.0, "job", 1),
            Span("2:1", "1:2", "parallel.task", 1.5, 5.0, "job", 2),
            Span("3:1", "1:2", "parallel.task", 2.0, 8.0, "job", 3),
            Span("2:2", "2:1", "solvers.solve", 2.0, 4.0, "job", 2),
            Span("1:9", None, "setup", -5.0, 0.0, "setup", 1),
        ]

    def test_layer_summary_self_time_spans_processes(self):
        summary = layer_summary(self._spans(), "job")
        assert summary["parallel.dispatch"]["self_seconds"] == pytest.approx(1.5)
        assert summary["parallel.task"]["calls"] == 2
        assert summary["parallel.task"]["self_seconds"] == pytest.approx(7.5)
        assert "setup" not in summary

    def test_top_level_coverage(self):
        assert top_level_coverage(self._spans(), "job") == pytest.approx(0.8)

    def test_top_level_coverage_needs_one_root(self):
        with pytest.raises(ValueError):
            top_level_coverage(self._spans()[1:], "job")


class TestFailFrac:
    def test_share_of_attempted(self):
        assert fail_frac(0, 7) == 0.0
        assert fail_frac(2, 8) == 0.25

    def test_rejects_nothing_attempted(self):
        with pytest.raises(ValueError):
            fail_frac(0, 0)

    def test_rejects_more_failures_than_attempts(self):
        with pytest.raises(ValueError):
            fail_frac(3, 2)


class TestDigests:
    def test_equal_digests_match(self):
        assert compare_digests({"a": "1", "b": "2"}, {"b": "2", "a": "1"}) == []

    def test_differences_and_missing_keys_are_reported(self):
        observed = {"a": "1", "b": "x", "c": "3"}
        reference = {"a": "1", "b": "2", "d": "4"}
        assert compare_digests(observed, reference) == ["b", "c", "d"]

    def test_sha256_text(self):
        assert sha256_text("abc").startswith("ba7816bf")


class TestHostSpeed:
    @staticmethod
    def _log(*blocks):
        log = SpeedLog()
        for block in blocks:
            log.add(block)
        return log

    def test_busy_excludes_inline_blocks_only(self):
        log = self._log(Block(1.0, 1.5, 0.01, True), Block(3.0, 4.0, 0.01, False))
        assert log.busy(0.0, 5.0) == pytest.approx(4.5)
        assert log.busy(1.25, 2.0) == pytest.approx(0.5)

    def test_one_block_scales_everything(self):
        log = self._log(Block(0.0, 0.1, 2 * REFERENCE_SLICE_S, True))
        assert log.scaled(1.0, 3.0) == pytest.approx(1.0)
        assert log.factor(1.0, 3.0) == pytest.approx(0.5)

    def test_between_blocks_the_mean_slice_applies(self):
        slow, fast = 2 * REFERENCE_SLICE_S, REFERENCE_SLICE_S
        log = self._log(Block(0.0, 0.0, slow, True), Block(4.0, 4.0, fast, True))
        # Mean slice 1.5x the reference between the blocks; after the
        # last block, that block's slice.
        assert log.scaled(1.0, 4.0) == pytest.approx(3.0 / 1.5)
        assert log.scaled(4.0, 6.0) == pytest.approx(2.0)

    def test_stolen_time_is_not_work(self):
        # A quarter of the busy ticks between the blocks were stolen.
        log = self._log(
            Block(0.0, 0.0, REFERENCE_SLICE_S, True, stolen=10, busy=100),
            Block(4.0, 4.0, REFERENCE_SLICE_S, True, stolen=60, busy=300),
        )
        assert log.scaled(1.0, 3.0) == pytest.approx(1.5)
        assert log.scaled(4.0, 6.0) == pytest.approx(1.5)

    def test_an_inline_block_inside_the_interval_is_not_work(self):
        log = self._log(Block(1.0, 2.0, REFERENCE_SLICE_S, True))
        assert log.scaled(0.0, 3.0) == pytest.approx(2.0)

    def test_disabled_log_reports_as_measured(self):
        log = SpeedLog(enabled=False)
        log.calibrate()
        assert log.blocks == []
        assert log.scaled(1.0, 3.5) == 2.5
        assert log.factor(1.0, 3.5) == 1.0


def test_read_timed_steps_time_first_reads_only():
    steps = _ReadTimedSteps(["a", "b", "c"], SpeedLog(enabled=False))
    assert len(steps) == 3 and steps[0:2] == ["a", "b"]
    assert steps.windows(1.0) == {}
    assert (steps[0], steps[2], steps[0], steps[-1]) == ("a", "c", "a", "c")
    windows = steps.windows(float("inf"))
    assert sorted(windows) == [0, 2]
    assert windows[0][1] == windows[2][0] and windows[2][1] == float("inf")


class TestCheck:
    def test_failures_and_misses_are_counted_apart(self):
        check = Check(attempted=5)
        check.fail("fitness does not re-measure")
        check.missed += 2
        assert (check.failed, check.missed) == (1, 2)
        assert check.problems == ["fitness does not re-measure"]
        assert fail_frac(check.failed + check.missed, check.attempted) == 0.6

    def test_no_reference_leaves_the_check_unmarked(self):
        check = Check(attempted=1, digests={"table1": "a"})
        assert _check_reference(check, None, ["table1"]) == []
        assert check.reference == "none"

    def test_reference_comparison_names_the_differing_keys(self):
        check = Check(attempted=2, digests={"table1": "a", "table2": "b", "report": "r"})
        reference = {"table1": "a", "table2": "z", "report": "other"}
        assert _check_reference(check, reference, ["table1", "table2"]) == ["table2"]
        assert check.reference == "mismatched"
        assert _check_reference(check, reference, ["table1"]) == []
        assert check.reference == "matched"


def test_nested_same_name_calls_fold_into_one_span_and_count(tmp_path):
    tracer = Tracer(tmp_path)

    def count(tracer, args, kwargs, result):
        tracer.add("rows", result)

    def inner():
        return tracer.call("engine.measure_stack", lambda: 4, (), {}, after=count)

    def outer():
        return tracer.call("engine.measure_stack", inner, (), {}, after=count)

    assert tracer.root("job", outer) == 4
    names = [span.name for span in tracer.spans]
    assert names == ["engine.measure_stack", "job"]
    assert tracer.counters == {("job", "rows"): 4}
    assert layer_summary(tracer.spans, "job")["engine.measure_stack"]["calls"] == 1
