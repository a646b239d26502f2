"""Spans and counts at the boundaries between susyqw's modules.

The wrappers live in the benchmark, not in the program: ``recording`` puts
one on each name in the namespace where its caller looks it up, because
``from .walk import evolve`` binds ``susyqw.optics.evolve`` separately from
``susyqw.walk.evolve``.  Every public function that one of the five layer
modules (``MODULES``) imports from another gets a span, named
``<defining module>.<function>``, and so do the calls inside a module that
the per-layer metrics need.

Two hot inner calls get counters instead of spans: ``walk.step`` (about 36k
calls per 100-step scan) and ``bloch.bloch_operator`` (one per k point).
With a span per step, ``walk.evolve.self_s`` would hold only the loop and
not the walk kernel it is meant to time.

Spans are kept in memory as ``(name, start, end, parent, invocation)`` and
reduced to per-layer metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from time import perf_counter
from typing import Any, Callable

from stats import self_times

MODULES = ("susyqw.cli", "susyqw.optics", "susyqw.midgap", "susyqw.bloch", "susyqw.walk")

# Calls within one module that the per-layer metrics need as spans.
INTRA_SPANS = (("susyqw.bloch", "band_structure"), ("susyqw.bloch", "torus_angles"))

# Both scan entry points are one layer boundary: the QWP scan loop.
SPAN_ALIASES = {"optics.qwp_scan": "optics.scan",
                "optics.long_time_extrapolation": "optics.scan"}

ROOT_SPAN = "cli.main"


def _site_count(state, *_args, **_kwargs) -> int:
    return state.amplitudes.shape[0]


COUNTERS = {("susyqw.walk", "step"): ("walk.step", "walk.site_steps", _site_count),
            ("susyqw.bloch", "bloch_operator"): ("bloch.bloch_operator", None, None)}


class Tracer:
    """Collects spans and counts while ``active``; passes calls through otherwise."""

    def __init__(self):
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = {}
        self.dims: list[int] = []          # ring operator dimension per full_spectrum
        self.states: list[tuple[int, int]] = []  # (found, expected) per find_midgap
        self.output_bytes = 0
        self.active = False
        self._stack: list[int] = []
        self._invocation = -1

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str, new_invocation: bool = False):
        if not self.active:
            yield
            return
        if new_invocation:
            self._invocation += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self._invocation]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, args, result)
            return result
        return wrapper

    def _count_wrapper(self, calls: str, amount: str | None,
                       measure: Callable | None, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.add(calls)
                if amount is not None:
                    self.add(amount, measure(*args, **kwargs))
            return fn(*args, **kwargs)
        return wrapper

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "midgap.full_spectrum":
            self.dims.append(2 * args[0].lattice.size)
        elif name == "midgap.find_midgap":
            # one state per protected eigenvalue (+i, -i) per interface
            self.states.append((len(result), 2 * len(args[0].profile.cuts)))

    @contextlib.contextmanager
    def recording(self):
        """Install the wrappers in the susyqw namespaces and record until exit."""
        patches = []
        for mod_name in MODULES:
            module = importlib.import_module(mod_name)
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ in MODULES
                        and (obj.__module__ != mod_name or (mod_name, attr) in INTRA_SPANS)):
                    patches.append((module, attr, obj, self._span_wrapper(_span_name(obj), obj)))
            for (m, attr), (calls, amount, measure) in COUNTERS.items():
                if m == mod_name and hasattr(module, attr):
                    fn = getattr(module, attr)
                    patches.append((module, attr, fn,
                                    self._count_wrapper(calls, amount, measure, fn)))
        for module, attr, _, wrapper in patches:
            setattr(module, attr, wrapper)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            for module, attr, original, _ in reversed(patches):
                setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """``{name: (value, unit)}`` of everything recorded so far."""
        selfs = self_times([tuple(s[:4]) for s in self.spans])

        def self_s(name):
            return selfs.get(name, (0, 0.0))[1]

        def calls(name):
            return selfs.get(name, (0, 0.0))[0]

        scans = {s[4] for s in self.spans if s[0] == "optics.scan"}
        scan_evolutions = sum(1 for s in self.spans if s[0] == "walk.evolve"
                              and s[3] is not None and self.spans[s[3]][0] == "optics.scan")
        site_steps = self.counts.get("walk.site_steps", 0)
        evolve_s = self_s("walk.evolve")
        metrics = {
            "walk.step.calls": self.counts.get("walk.step", 0),
            "walk.site_steps": site_steps,
            "walk.evolve.self_s": evolve_s,
            "walk.site_steps_per_s": site_steps / evolve_s if evolve_s > 0 else 0.0,
            "walk.to_frame.calls": calls("walk.to_frame"),
            "walk.to_frame.self_s": self_s("walk.to_frame"),
            "walk.one_step_matrix.self_s": self_s("walk.one_step_matrix"),
            "optics.scan.self_s": self_s("optics.scan"),
            "optics.scan.evolutions": scan_evolutions / len(scans) if scans else 0.0,
            "optics.tomography.self_s": self_s("optics.tomography"),
            "optics.measure_bases.self_s": self_s("optics.measure_bases"),
            "midgap.full_spectrum.self_s": self_s("midgap.full_spectrum"),
            "midgap.full_spectrum.dim": max(self.dims, default=0),
            "midgap.find_midgap.self_s": self_s("midgap.find_midgap"),
            "midgap.site_polarization.calls": calls("midgap.site_polarization"),
            "midgap.site_polarization.self_s": self_s("midgap.site_polarization"),
            "midgap.states_found": sum(f for f, _ in self.states),
            "midgap.states_expected": sum(e for _, e in self.states),
            "bloch.band_structure.self_s": self_s("bloch.band_structure"),
            "bloch.bloch_operator.calls": self.counts.get("bloch.bloch_operator", 0),
            "bloch.torus_angles.calls": calls("bloch.torus_angles"),
            "bloch.torus_angles.self_s": self_s("bloch.torus_angles"),
            "cli.self_s": self_s(ROOT_SPAN),
            "cli.output_bytes": self.output_bytes,
        }
        return {name: (value, _unit(name)) for name, value in metrics.items()}


def _span_name(fn: Callable) -> str:
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    return SPAN_ALIASES.get(name, name)


def _unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"
