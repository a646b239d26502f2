"""The benchmark's workloads: each a fixed cycle of seeded ``susyqw`` invocations.

Every invocation draws its coin angles from the workload seed inside the
gapped box phi1 in [1.1, 1.4], phi2 in [0.1, 0.3], which stays clear of the
gap closing at phi1 = phi2, so every output check has a defined answer.  The
same seed gives the same sequence of command lines; the program receives
nothing but those command lines.
"""

from __future__ import annotations

import contextlib
import io
import random
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

PHI1_BOX = (1.1, 1.4)
PHI2_BOX = (0.1, 0.3)
PLATE_BOX = (0.0, 180.0)  # input quarter-wave plate angle, degrees


@dataclass(frozen=True)
class Command:
    """One command line of a cycle, run ``repeat`` times in a row."""

    name: str                # report stem: the median is reported as <name>_s
    argv: tuple[str, ...]    # fixed arguments; angles and --out are appended
    repeat: int = 1
    plate: bool = False      # also draws a seeded input QWP angle


@dataclass(frozen=True)
class Invocation:
    command: Command
    phi1: float
    phi2: float
    plate_deg: float | None
    out: Path

    @property
    def argv(self) -> list[str]:
        args = list(self.command.argv)
        args += ["--phi1", repr(self.phi1), "--phi2", repr(self.phi2)]
        if self.plate_deg is not None:
            args += ["--plate", f"qwp:{self.plate_deg!r}"]
        return args + ["--out", str(self.out)]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[Command, ...]
    large: str                    # command reported as large_ref and large_s
    small: str                    # command reported as small_ref and small_s
    warm_up: tuple[tuple[str, ...], ...]
    trace_cycles: int             # fixed cycle count of a traced run

    def invocations(self, seed: int, outdir: Path) -> Iterator[list[Invocation]]:
        """Endless sequence of cycles; each cycle is a list of invocations."""
        rng = random.Random(seed)
        while True:
            cycle = []
            for cmd in self.cycle:
                for _ in range(cmd.repeat):
                    phi1 = rng.uniform(*PHI1_BOX)
                    phi2 = rng.uniform(*PHI2_BOX)
                    plate = rng.uniform(*PLATE_BOX) if cmd.plate else None
                    cycle.append(Invocation(cmd, phi1, phi2, plate,
                                            outdir / f"{cmd.name}.out"))
            yield cycle


# Each workload loads one library layer and leaves the others idle, except
# trajectory, which exists to load the cli layer; README.md gives the why.
WORKLOADS = {w.name: w for w in (
    Workload(
        "trapping",
        (Command("scan100", ("scan", "--steps", "100", "--cell")),
         Command("scan13", ("scan", "--steps", "13")),
         Command("tomo", ("tomo", "--steps", "17"), repeat=20, plate=True)),
        large="scan100", small="tomo",
        warm_up=(("scan", "--steps", "3", "--angles", "0:180:45"),
                 ("scan", "--steps", "3", "--cell", "--angles", "0:180:45"),
                 ("tomo", "--steps", "3", "--plate", "qwp:30")),
        trace_cycles=3),
    Workload(
        "spectrum",
        (Command("midgap", ("midgap", "--n", "400")),
         Command("midgap_small", ("midgap", "--n", "40"), repeat=10)),
        large="midgap", small="midgap_small",
        warm_up=(("midgap", "--n", "12"),),
        trace_cycles=4),
    Workload(
        "bands",
        (Command("winding", ("winding", "--resolution", "2048")),
         Command("bands", ("bands", "--resolution", "2048"), repeat=2)),
        large="winding", small="bands",
        warm_up=(("bands", "--resolution", "16"),),
        trace_cycles=4),
    Workload(
        "trajectory",
        (Command("evolve", ("evolve", "--steps", "300", "--frame", "both")),
         Command("evolve_small", ("evolve", "--steps", "13"), repeat=10)),
        large="evolve", small="evolve_small",
        warm_up=(("evolve", "--steps", "3"),),
        trace_cycles=8),
)}


def invoke(main: Callable[[list[str]], int], argv: list[str]) -> tuple[int, str, str]:
    """Run ``main(argv)`` in-process; return (exit code, stdout, stderr).

    An exception escaping ``main`` is a failed invocation with exit code 1
    and its traceback as stderr; ``SystemExit`` (argparse) keeps its code.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is one failed invocation, not the end of the run
        code = 1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def warm_up(main: Callable[[list[str]], int], workload: Workload, outdir: Path) -> None:
    """Run the workload's small warm-up command lines; raise if one fails."""
    for args in workload.warm_up:
        code, _, err = invoke(main, [*args, "--out", str(outdir / "warm_up.out")])
        if code != 0:
            raise RuntimeError(f"warm-up {' '.join(args)} exited {code}: {err.strip()}")
