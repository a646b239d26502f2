"""Statistics of one benchmark run: outcome tally, tails, self time.

Pure Python, no NumPy, so that the unit tests in ``test_stats.py`` exercise
exactly the arithmetic the report uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

TAIL_BEYOND = 10  # samples that must lie above a reported tail value


@dataclass
class Tally:
    """Latencies per command and the failure count of every attempted invocation.

    An invocation fails when it exits non-zero, raises, or its output fails
    the check.  A failed invocation is counted, never dropped: its latency is
    kept with the others and it adds one to ``failed``.
    """

    latencies: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def record(self, command: str, seconds: float, ok: bool) -> None:
        self.latencies.setdefault(command, []).append(seconds)
        self.attempted += 1
        if not ok:
            self.failed += 1


def failed_frac(tallies: list[Tally]) -> float:
    """Failed over attempted invocations, summed over tallies; 0 if none ran."""
    attempted = sum(t.attempted for t in tallies)
    return sum(t.failed for t in tallies) / attempted if attempted else 0.0


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``: the sample with exactly ten samples
    above it in sorted order and the share of samples at or below it, in
    percent.  With fewer than eleven samples no tail exists and the result
    is None.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND - 1
    return sorted(values)[rank], 100.0 * (rank + 1) / n


def self_times(spans: list[tuple[str, float, float, int | None]]) -> dict[str, tuple[int, float]]:
    """Calls and self time per span name.

    ``spans`` holds ``(name, start, end, parent)`` with ``parent`` the index
    of the enclosing span or None.  Spans of one thread nest, so a span's
    self time is its duration minus the durations of its direct children.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for (name, start, end, _), child_time in zip(spans, covered):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child_time)
    return out
