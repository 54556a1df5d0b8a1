"""Host-speed calibration: report times at a fixed reference speed.

The benchmark runs on a share of a machine whose speed changes under
it, in two ways measured on the 2-CPU host that set these constants:

* the speed of the CPU it gets switches between levels about a fifth
  apart within seconds and drifts over minutes: a fixed pure-Python
  loop timed in 20 s windows spread 0.22-0.27 (quartile distance over
  median);
* the hypervisor takes the CPUs away in bursts (``steal`` in
  ``/proc/stat``): 1-3% of the busy time in quiet minutes, 40% in busy
  ones, when the program's times doubled.

So every timed end-to-end metric is measured beside both and reported
in *reference seconds*::

    reference seconds = seconds * (1 - steal) * REFERENCE_SLICE_S / slice

where ``slice`` is the CPU time of a fixed calibration slice (interpreter
work and small numpy arrays, no program code) measured beside the work,
and ``steal`` is the share of the busy CPU time stolen meanwhile.  A
change that makes the program slower makes it slower in reference
seconds too; a host that runs everything slower for a while does not.
The raw seconds are printed beside the scaled ones.

Calibration blocks are taken *inline* (the work pauses for them; their
time is excluded from the work's) or by a *sampler* thread while the
work runs in other processes (nothing is excluded).
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.anytime.deadline import DEFAULT_CLOCK

__all__ = [
    "REFERENCE_SLICE_S",
    "Block",
    "SpeedLog",
    "calibration_slice",
    "cpu_counters",
]

#: About the median slice time on the host that set the benchmark's
#: figures (2-CPU shared host, CPython 3.11), so reference seconds read
#: close to that host's seconds; any fixed constant would do.
REFERENCE_SLICE_S = 0.005

#: Slices per calibration block; the block keeps their median.
SLICES_PER_BLOCK = 3

#: Parts of a whole slice.  The sampler thread times single parts
#: (about 0.8 ms): it shares the CPUs with busy pool workers, and whole
#: slices every 0.2 s would take 7% of a CPU from them.
SLICE_PARTS = 6

#: Work seconds between inline blocks.  The host's speed switches
#: between levels about a fifth apart within a second, so a block every
#: few seconds samples it rather than tracks it.
BLOCK_PERIOD_S = 0.2

_POINTS = np.stack(
    [np.arange(64, dtype=float) % 13.0, np.arange(64, dtype=float) // 5.0], axis=1
)
_CLIENTS = np.stack(
    [np.arange(192, dtype=float) % 17.0, np.arange(192, dtype=float) // 11.0], axis=1
)


def calibration_slice(parts: int = SLICE_PARTS) -> float:
    """Run ``parts`` parts of the fixed slice; a whole slice's CPU seconds.

    Thread CPU time leaves out the time the hypervisor or the scheduler
    held the thread off a CPU; :func:`cpu_counters` measures the former.
    """
    start = time.thread_time()
    table: dict[int, int] = {}
    total = 0
    for _ in range(parts):
        for i in range(1500):
            key = i % 97
            table[key] = table.get(key, 0) + (i * i) % 7
            total += key
        gaps = _POINTS[:, None, :] - _CLIENTS[None, :, :]
        covered = (np.einsum("ijk,ijk->ij", gaps, gaps) <= 16.0).any(axis=0)
        total += int(covered.sum()) + int(np.argsort(gaps[:, :, 0], axis=1)[0, 0])
    if total < 0:  # keeps the work from being optimized away
        raise AssertionError(total)
    return (time.thread_time() - start) * SLICE_PARTS / parts


def cpu_counters() -> tuple[int, int]:
    """``(stolen, busy)`` CPU ticks of the whole machine so far.

    Busy ticks are every non-idle state, steal included, so the share
    stolen over an interval is the share of the time runnable threads
    wanted a CPU and the hypervisor did not give it.
    """
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(value) for value in stat.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq + steal


@dataclass(frozen=True)
class Block:
    """One calibration block: when it ran, its median slice CPU time,
    and the machine's stolen and busy ticks when it ended."""

    start: float
    end: float
    slice_s: float
    inline: bool
    stolen: int = 0
    busy: int = 0


def _steal_share(earlier: Block, later: Block) -> float:
    busy = later.busy - earlier.busy
    return (later.stolen - earlier.stolen) / busy if busy > 0 else 0.0


class SpeedLog:
    """Calibration blocks of one process, and the scaling they imply.

    A disabled log takes no blocks and scales by 1 (the traced run,
    whose layer times are reported as measured).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.blocks: list[Block] = []
        self._inline: list[Block] = []
        self._stop: "threading.Event | None" = None
        self._thread: "threading.Thread | None" = None

    def _block(self, inline: bool) -> None:
        start = DEFAULT_CLOCK.now()
        parts = SLICE_PARTS if inline else 1
        slices = [calibration_slice(parts) for _ in range(SLICES_PER_BLOCK)]
        stolen, busy = cpu_counters()
        end = DEFAULT_CLOCK.now()
        self.add(Block(start, end, statistics.median(slices), inline, stolen, busy))

    def add(self, block: Block) -> None:
        """Record a block taken after every block recorded so far."""
        self.blocks.append(block)
        if block.inline:
            self._inline.append(block)

    def calibrate(self) -> None:
        """Take one inline block (the caller's work waits for it)."""
        if self.enabled:
            self._block(inline=True)

    def maybe_calibrate(self) -> None:
        """Take an inline block if ``BLOCK_PERIOD_S`` of work has passed."""
        if self.enabled and (
            not self._inline or DEFAULT_CLOCK.now() - self._inline[-1].end >= BLOCK_PERIOD_S
        ):
            self._block(inline=True)

    def start_sampler(self, period: float = BLOCK_PERIOD_S) -> None:
        """Take a block every ``period`` seconds from a thread.

        For work running in other processes while this one waits; the
        thread's blocks overlap the work and are not excluded from it.
        """
        if not self.enabled or self._thread is not None:
            return
        stop = threading.Event()

        def sample() -> None:
            while not stop.wait(period):
                self._block(inline=False)

        self._stop = stop
        self._thread = threading.Thread(target=sample, name="perfbench-sampler", daemon=True)
        self._thread.start()

    def stop_sampler(self) -> None:
        """Stop the sampler thread and wait for it to end."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = self._stop = None

    def busy(self, t0: float, t1: float) -> float:
        """Seconds in ``[t0, t1]`` outside this log's inline blocks."""
        ends = [block.end for block in self._inline]
        paused = 0.0
        for block in self._inline[bisect.bisect_right(ends, t0):]:
            if block.start >= t1:
                break
            paused += max(0.0, min(t1, block.end) - max(t0, block.start))
        return (t1 - t0) - paused

    def scaled(self, t0: float, t1: float) -> float:
        """Work seconds in ``[t0, t1]`` at the reference speed.

        Between the midpoints of two consecutive blocks the slice time
        is the mean of theirs and the steal share the one between them;
        before the first block and after the last one, the slice time is
        that block's and the steal share the nearest pair's.  Inline
        blocks are not work.
        """
        if not self.enabled:
            return t1 - t0
        if not self.blocks:
            raise ValueError("no calibration block was taken")
        blocks = sorted(self.blocks, key=lambda b: b.start)
        last = len(blocks) - 1
        mids = [(b.start + b.end) / 2 for b in blocks]
        edges = [float("-inf"), *mids, float("inf")]
        total = 0.0
        index = bisect.bisect_right(mids, t0)
        while index < len(edges) - 1 and edges[index] < t1:
            low, high = max(t0, edges[index]), min(t1, edges[index + 1])
            if high > low:
                before, after = blocks[max(0, index - 1)], blocks[min(last, index)]
                slice_s = (before.slice_s + after.slice_s) / 2
                later = min(max(index, 1), last)
                steal = _steal_share(blocks[max(later - 1, 0)], blocks[later])
                total += self.busy(low, high) * (1.0 - steal) * REFERENCE_SLICE_S / slice_s
            index += 1
        return total

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per work second over ``[t0, t1]``."""
        busy = self.busy(t0, t1)
        return self.scaled(t0, t1) / busy if busy > 0 else 1.0
