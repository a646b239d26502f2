"""Benchmark of the susyqw command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload trapping --seed 1 --seconds 25 --trace 0

One process drives the public entry point ``susyqw.cli.main(argv)``
in-process as a single client in a closed loop (the next invocation starts
when the previous one and its output check have finished; no think time).
Each workload is a fixed cycle of command lines whose coin angles come from
``--seed`` (see workloads.py); every output goes through ``--out`` into a
temporary directory of the checkout and is checked (see checks.py).

``--trace 0`` runs whole cycles until ``--seconds`` have passed and reports
the end-to-end metrics.  ``--trace 1`` runs a fixed number of cycles twice
with the same inputs, untraced and then with span wrappers installed (see
tracing.py), and reports the per-layer metrics of the traced pass and the
tracing overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, and ``.bench-results/`` keeps the full
record: seed, environment, raw latencies and, for a traced run, the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable

from reference import reference_seconds
from stats import Tally, failed_frac, tail
from tracing import ROOT_SPAN, Tracer
from workloads import WORKLOADS, Workload, invoke, warm_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench-results"
SETUP_PROBES = 4  # before the timed window; one more follows each cycle
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_REPORTED_FAILURES = 5


def pin_to_one_cpu() -> None:
    """Run on one CPU with one BLAS and OpenMP thread.

    The CPUs of a shared host change speed independently of each other, so
    the reference kernel (reference.py) tracks the speed of an invocation
    only if both run on the same CPU.  Child processes inherit the pin.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_cli():
    """``susyqw.cli`` from this checkout's ``src/``; exit non-zero without it."""
    if not (SRC / "susyqw" / "cli.py").is_file():
        sys.exit(f"bench: no susyqw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from susyqw import cli
    if Path(cli.__file__).resolve().parent != SRC / "susyqw":
        sys.exit(f"bench: imported susyqw from {cli.__file__}, not from {SRC}")
    return cli


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"cpus": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas_name, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def measure_setup(workload: Workload, outdir: Path, probes: int) -> list[float]:
    """Wall time of fresh interpreters that import susyqw.cli and warm up."""
    times = []
    for _ in range(probes):
        start = perf_counter()
        # Piped output ends the wait when the probe exits; a bare wait with
        # a timeout would poll in steps of up to 50 ms.
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload.name,
                        str(outdir)], check=True, timeout=120, capture_output=True)
        times.append(perf_counter() - start)
    return times


def run_cycle(cli, check, tracer: Tracer, cycle: list, tally: Tally,
              after: Callable[[str, float], None] | None = None) -> float:
    """Run and check one cycle of invocations; return its wall time.

    ``after(command, latency)`` is called after each invocation's check.
    """
    start = perf_counter()
    for inv in cycle:
        t0 = perf_counter()
        with tracer.span(ROOT_SPAN, new_invocation=True):
            code, out, err = invoke(cli.main, inv.argv)
        latency = perf_counter() - t0
        with tracer.paused():
            problems = check(inv, code, out)
        if tracer.active:
            tracer.output_bytes += len(out.encode())
            if inv.out.exists():
                tracer.output_bytes += inv.out.stat().st_size
        tally.record(inv.command.name, latency, not problems)
        if problems and tally.failed <= MAX_REPORTED_FAILURES:
            detail = f" | {err.strip()}" if err.strip() else ""
            print(f"bench: FAILED {' '.join(inv.argv)}: {'; '.join(problems)}{detail}",
                  file=sys.stderr)
        if after is not None:
            after(inv.command.name, latency)
    return perf_counter() - start


def timed_run(cli, check, workload: Workload, args, outdir: Path, tallies: dict):
    """End-to-end metrics, tracing off.

    Whole cycles run until ``--seconds`` have passed; a cycle once started is
    finished, so every run measures the same mix of commands.  The reference
    kernel runs between every two invocations, and each latency is also taken
    relative to the mean of the kernel times just before and after it.  A
    set-up probe follows each cycle, so that the probes sample the host over
    the whole run and not only at its start.
    """
    setup = measure_setup(workload, outdir, SETUP_PROBES)
    warm_up(cli.main, workload, outdir)
    reference_seconds()  # the first kernel run pays for cold caches
    tally = tallies["timed"] = Tally()
    tracer = Tracer()
    relative: dict[str, list[float]] = {}
    refs = [reference_seconds()]

    def after(command: str, latency: float) -> None:
        refs.append(reference_seconds())
        relative.setdefault(command, []).append(latency / ((refs[-2] + refs[-1]) / 2))

    start = perf_counter()
    for cycle in workload.invocations(args.seed, outdir):
        if perf_counter() - start >= args.seconds:
            break
        run_cycle(cli, check, tracer, cycle, tally, after)
        setup += measure_setup(workload, outdir, 1)
        refs.append(reference_seconds())
    lat = tally.latencies
    busy = sum(sum(values) for values in lat.values())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "large_ref": (statistics.median(relative[workload.large]), "ref"),
        "small_ref": (statistics.median(relative[workload.small]), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"large is {workload.large}, small is {workload.small}",
             f"large_s = {statistics.median(lat[workload.large])!r} s, "
             f"small_s = {statistics.median(lat[workload.small])!r} s",
             f"cmds_per_s = {tally.attempted / busy!r} 1/s of invocation time",
             f"reference kernel = {statistics.median(refs)!r} s (median of {len(refs)})",
             f"setup_s of {len(setup)} fresh interpreters: "
             + ", ".join(f"{t:.4f}" for t in setup)]
    return metrics, notes, {"setup_probes_s": setup, "reference_s": refs,
                            "relative": relative}


def traced_run(cli, check, workload: Workload, args, outdir: Path, tallies: dict):
    """Per-layer metrics of a fixed number of cycles, so that counts repeat.

    Each cycle runs twice with the same inputs, untraced and traced, in
    alternating order; the gap between the two rates is the tracing overhead.
    """
    warm_up(cli.main, workload, outdir)
    tracer = Tracer()
    elapsed = {"untraced": 0.0, "traced": 0.0}
    for label in elapsed:
        tallies[label] = Tally()
    cycles = itertools.islice(workload.invocations(args.seed, outdir), workload.trace_cycles)
    for i, cycle in enumerate(cycles):
        for label in (("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")):
            with tracer.recording() if label == "traced" else contextlib.nullcontext():
                elapsed[label] += run_cycle(cli, check, tracer, cycle, tallies[label])
    rates = {label: tallies[label].attempted / elapsed[label] for label in elapsed}
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = (1.0 - rates["traced"] / rates["untraced"], "fraction")
    notes = [f"cmds_per_s untraced = {rates['untraced']!r} 1/s, "
             f"traced = {rates['traced']!r} 1/s over {workload.trace_cycles} cycles each"]
    return metrics, notes, {"spans": tracer.spans}


def command_stats(tally: Tally) -> dict:
    out = {}
    for name, values in tally.latencies.items():
        entry = {"median_s": statistics.median(values), "n": len(values)}
        t = tail(values)
        if t is not None:
            entry["tail_s"], entry["tail_percentile"] = t
        entry["latencies_s"] = values
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    # The thread caps must be in the environment before NumPy loads OpenBLAS,
    # and checks.py imports NumPy and susyqw.
    pin_to_one_cpu()
    cli = import_cli()
    from checks import check

    env = environment()
    tallies: dict[str, Tally] = {}
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        run = traced_run if args.trace else timed_run
        metrics, notes, extra = run(cli, check, workload, args, Path(tmp), tallies)

    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    frac = failed_frac(list(tallies.values()))
    commands = {label: command_stats(t) for label, t in tallies.items()}

    print(f"# workload = {workload.name}, seed = {args.seed}, trace = {args.trace}")
    print(f"# environment = {json.dumps(env, sort_keys=True)}")
    for label, stats in commands.items():
        for name, entry in stats.items():
            line = f"{label}: {name}_s = {entry['median_s']!r} s (median of {entry['n']})"
            if "tail_s" in entry:
                line += (f", {name}_s_tail = {entry['tail_s']!r} s "
                         f"(p{entry['tail_percentile']:.1f})")
            print(line)
    for note in notes:
        print(note)
    print(f"failed_frac = {frac!r} ({failed} of {attempted} invocations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "failed_frac": frac,
              "commands": commands, **extra, **result}
    path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
