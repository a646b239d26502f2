"""Unit tests of the benchmark's own statistics.

    python3 -m pytest bench/test_stats.py
"""

import statistics

import pytest

from stats import Tally, failed_frac, self_times, tail
from workloads import invoke


def test_tail_is_the_sample_with_ten_beyond_it():
    values = [float(v) for v in range(1, 41)]      # 1 .. 40, shuffled below
    values = values[::2] + values[1::2]
    value, percentile = tail(values)
    assert value == 30.0
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(75.0)


def test_tail_needs_eleven_samples():
    assert tail([1.0] * 10) is None
    value, percentile = tail([float(v) for v in range(11)])
    assert value == 0.0
    assert percentile == pytest.approx(100.0 / 11)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("cli.main", 0.0, 10.0, None),
        ("optics.scan", 1.0, 9.0, 0),
        ("walk.evolve", 2.0, 4.0, 1),
        ("walk.evolve", 5.0, 8.0, 1),
        ("walk.to_frame", 9.5, 10.0, 0),
    ]
    out = self_times(spans)
    assert out["cli.main"] == (1, pytest.approx(10.0 - 8.0 - 0.5))
    assert out["optics.scan"] == (1, pytest.approx(8.0 - 2.0 - 3.0))
    assert out["walk.evolve"] == (2, pytest.approx(5.0))
    assert out["walk.to_frame"] == (1, pytest.approx(0.5))


def test_self_times_of_nested_spans_add_up_to_the_root():
    spans = [("root", 0.0, 6.0, None), ("mid", 1.0, 5.0, 0), ("leaf", 2.0, 3.0, 1)]
    assert sum(t for _, t in self_times(spans).values()) == pytest.approx(6.0)


def test_failed_invocations_are_counted_not_dropped():
    tally = Tally()
    tally.record("tomo", 0.01, ok=True)
    tally.record("tomo", 0.02, ok=False)     # non-zero exit or failed check
    tally.record("scan13", 0.30, ok=True)
    tally.record("scan13", 0.50, ok=False)
    assert tally.attempted == 4
    assert tally.failed == 2
    assert tally.latencies == {"tomo": [0.01, 0.02], "scan13": [0.30, 0.50]}
    assert statistics.median(tally.latencies["scan13"]) == pytest.approx(0.40)
    assert failed_frac([tally]) == 0.5


def test_failed_frac_sums_over_tallies():
    untraced, traced = Tally(), Tally()
    for ok in (True, True, True, False):
        untraced.record("midgap", 3.0, ok)
    traced.record("midgap", 3.1, ok=True)
    assert failed_frac([untraced, traced]) == pytest.approx(1 / 5)
    assert failed_frac([Tally()]) == 0.0


def test_invoke_turns_crashes_and_exits_into_failed_exit_codes():
    def crash(argv):
        raise RuntimeError("boom")

    def bad_arguments(argv):
        raise SystemExit(2)

    def ok(argv):
        print("# final_norm = 1.0")
        return 0

    code, out, err = invoke(crash, [])
    assert code == 1 and "RuntimeError: boom" in err
    assert invoke(bad_arguments, [])[0] == 2
    assert invoke(ok, []) == (0, "# final_norm = 1.0\n", "")
