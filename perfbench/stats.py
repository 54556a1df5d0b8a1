"""Small numeric helpers shared by the benchmark and its tests.

Pure functions, no repository imports: percentiles with a tail-size
rule, interval arithmetic for span self time, failure accounting and
digest comparison.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Sequence

__all__ = [
    "TAIL_MIN",
    "compare_digests",
    "fail_frac",
    "percentile",
    "self_time",
    "sha256_text",
    "tail_percentile",
    "union_length",
]

#: A reported percentile needs at least this many samples beyond it.
TAIL_MIN = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation.

    Same rule as ``numpy.percentile``'s default: position
    ``q / 100 * (n - 1)`` in the sorted samples.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    position = q / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def tail_percentile(
    samples: Sequence[float], q: float, min_beyond: int = TAIL_MIN
) -> tuple[float, int]:
    """``(value, beyond)``: the percentile and the samples strictly above it.

    Raises when fewer than ``min_beyond`` samples lie beyond the value:
    such a percentile rests on too few observations to be reported.
    """
    value = percentile(samples, q)
    beyond = sum(1 for sample in samples if sample > value)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(samples)} samples has {beyond} beyond it; "
            f"at least {min_beyond} are needed"
        )
    return value, beyond


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its child spans cover.

    Children may overlap each other (spans of parallel workers) and may
    stick out of the parent; only the covered part inside ``[start,
    end]`` is subtracted.
    """
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
    ]
    return max(0.0, (end - start) - union_length(clipped))


def fail_frac(failed: int, attempted: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError(f"attempted must be at least 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(
            f"failed must be in [0, attempted={attempted}], got {failed}"
        )
    return failed / attempted


def compare_digests(
    observed: Mapping[str, str], reference: Mapping[str, str]
) -> list[str]:
    """Keys whose observed digest differs from, or is missing in, either side."""
    keys = sorted(set(observed) | set(reference))
    return [key for key in keys if observed.get(key) != reference.get(key)]


def sha256_text(text: str) -> str:
    """Hex SHA-256 of ``text`` encoded as UTF-8."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

