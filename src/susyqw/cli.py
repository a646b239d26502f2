"""Command-line front end: evolve, bands, winding, midgap, scan, tomo.

All commands are deterministic given their configuration (including the
noise seed): identical invocations produce byte-identical output.  Data go
to ``--out`` (or stdout); the trailing summary block uses ``# key = value``
lines.  Exit codes: 0 success, 2 configuration error, 3 numerical failure.

Angle units: coin angles are radians, waveplate angles degrees; both accept
an explicit ``rad``/``deg`` suffix in config files (e.g. ``"137deg"``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import stat
import sys

import numpy as np

from . import __version__
from .bloch import band_condition_value, band_structure, winding_numbers
from .errors import ConfigError, ProfileError, SusyqwError
from .midgap import (anomaly_expectation, find_midgap, full_spectrum,
                     ring_with_interfaces, site_polarization)
from .optics import (jitter_intensities, long_time_extrapolation, measure_bases,
                     prepare_input, pure_state_fidelity, qwp_scan, tomography)
from .walk import (Frame, Lattice, Topology, _coin, _coin_factors, advance, evolve,
                   make_coin_profile, segment_for, to_frame)


def _integer(value) -> int:
    """A JSON integer or an integer string; booleans and floats are refused."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError):
            return int(value)
    raise ConfigError(f"must be an integer, got {value!r}")


def _real(value) -> float:
    """A finite number or number string; booleans are refused."""
    out = math.nan
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError, OverflowError):
            out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"must be a finite number, got {value!r}")
    return out


def _at_least(parse, low, strict=False):
    """``parse`` followed by the bound ``> low`` (strict) or ``>= low``."""
    def bounded(value):
        out = parse(value)
        if out < low or (strict and out == low):
            raise ConfigError(f"must be {'>' if strict else '>='} {low}, got {value!r}")
        return out
    return bounded


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"must be true or false, got {value!r}")
    return value


class _Choice(dict):
    """Parser for one word of a fixed set; returns the value the word maps to."""

    def __call__(self, value):
        if isinstance(value, str) and value in self:
            return self[value]
        raise ConfigError(f"must be one of {', '.join(self)}, got {value!r}")


def _parse_angle(value, default_unit: str = "rad") -> float:
    """Angle in its native unit; strings may carry a rad/deg suffix."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out = float(value)
    else:
        text = str(value).strip().lower()
        unit = text[-3:] if text.endswith(("rad", "deg")) else default_unit
        try:
            out = float(text.removesuffix(unit))
        except ValueError:
            raise ConfigError(f"cannot parse angle {value!r}") from None
        if unit != default_unit:
            out = np.rad2deg(out) if default_unit == "deg" else np.deg2rad(out)
    if not np.isfinite(out):
        raise ConfigError(f"angle must be finite, got {value!r}")
    return float(out)


def _parse_plates(raw) -> list[tuple[str, float]]:
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"must be a list, got {raw!r}")
    plates = []
    for item in raw:
        pair = item.split(":") if isinstance(item, str) else item
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"plate {item!r} must be \"kind:angle\" or [kind, angle]")
        kind, angle = pair
        kind = str(kind).lower()
        if kind not in ("qwp", "hwp"):
            raise ConfigError(f"unknown plate kind {kind!r}")
        plates.append((kind, _parse_angle(angle, "deg")))
    return plates


def _parse_grid(spec) -> np.ndarray:
    try:
        start, stop, step = (float(p) for p in str(spec).split(":"))
    except ValueError:
        raise ConfigError(f"angle grid {spec!r} must be start:stop:step (degrees)") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"angle grid {spec!r} needs finite bounds")
    if step <= 0 or stop <= start:
        raise ConfigError(f"empty angle grid {spec!r}")
    return np.arange(start, stop, step)


def _size(value):
    return value if value == "auto" else _integer(value)


_count = _at_least(_integer, 0)
_FRAMES = _Choice(lab=(Frame.LAB,), primed=(Frame.PRIMED,), both=(Frame.LAB, Frame.PRIMED))
_PLATES = ("--plate", _parse_plates, (),
           "input waveplate kind:angle, repeatable (e.g. qwp:137deg)")


def _common(phi1: float, phi2: float) -> dict:
    """The rows every command has: output file and the two coin angles."""
    return {"out": ("--out", str, None, "output file (default: stdout)"),
            "phi1": ("--phi1", _parse_angle, phi1,
                     "first coin angle (radians; rad/deg suffix allowed)"),
            "phi2": ("--phi2", _parse_angle, phi2, "second coin angle (radians)")}


class _Output:
    """Writes a command's output as it is made: the body, then the summary lines.

    The destination, the ``--out`` file or stdout, is opened on creation; an
    ``--out`` that cannot be opened is a configuration error.  As a context
    manager it appends the summary on success (and echoes it to stdout after
    an ``--out`` file).  On any exception it closes and removes the ``--out``
    file; rows already written to stdout stay there.

    Only ``evolve`` streams and creates it before its work; the other
    commands create it once their results are computed.  A failed computation
    then leaves an existing ``--out`` untouched, and the truncating open sits
    next to the writes: opened before the work of a 2 ms ``tomo``, it made
    the command about 5% slower in the benchmark (ext4, one pinned CPU).
    """

    def __init__(self, out_path: str | None):
        self.out_path = out_path
        self.summary: list[str] = []
        if not out_path:
            self._fh = sys.stdout
            return
        try:
            self._fh = open(out_path, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"out: cannot write: {exc}") from None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        tail = "".join(line + "\n" for line in self.summary)
        if self.out_path:
            complete = False
            try:
                with self._fh:
                    if exc_type is None:
                        self._fh.write(tail)
                complete = exc_type is None
            finally:
                if not complete:
                    self._remove_partial()
        if exc_type is None:
            sys.stdout.write(tail)

    def _remove_partial(self):
        """Remove the ``--out`` file; a symlink, pipe or device written through stays."""
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(self.out_path).st_mode):
                os.remove(self.out_path)

    def table(self, header: list[str], blocks):
        """Header, then one row per index of each block of equal-length 1-d columns.

        A cell is the ``repr`` of the column's int or float: the shortest text
        that reads back as the same float64.  Each block is written as one
        text part before the next block is made.  ``repr`` runs once per
        distinct int and once per float other than +0.0; a +0.0, as outside
        the light cone of ``evolve``, is the constant "0.0".
        """
        write = self._fh.write
        write(",".join(header) + "\n")
        int_text: dict[int, str] = {}
        for block in blocks:
            rows = map(",".join, zip(*(_cells(col, int_text) for col in block)))
            # the final "" ends the last row; text + "\n" would copy the block
            write("\n".join([*rows, ""]))

    def write_text(self, text: str):
        self._fh.write(text)

    def note(self, key: str, value):
        if isinstance(value, float):
            value = repr(value)
        self.summary.append(f"# {key} = {value}")


def _cells(col: np.ndarray, int_text: dict[int, str]) -> list[str]:
    """The ``repr`` of each entry of a 1-d column.

    A float64 column gets "0.0" for each +0.0, the one float64 with no bit
    set, and ``repr`` for the rest (-0.0, nan and inf keep their own text).
    An int's text is made once per table and kept in ``int_text``.
    """
    if col.dtype == np.float64:
        cells = ["0.0"] * col.size
        nonzero = np.flatnonzero(col.view(np.int64))
        for i, x in zip(nonzero.tolist(), col[nonzero].tolist()):
            cells[i] = repr(x)
        return cells
    values = col.tolist()
    if col.dtype.kind not in "iu":
        return list(map(repr, values))
    try:
        return list(map(int_text.__getitem__, values))
    except KeyError:  # ints this table has not written yet
        distinct = set(values)
        int_text.update(zip(distinct, map(repr, distinct)))
    return list(map(int_text.__getitem__, values))


def _fmt(x) -> str:
    return repr(float(x))


def cmd_evolve(opts) -> int:
    """Per-site probabilities of every step of a walk, one table block per step.

    Each step is advanced, changed to the requested frames and written before
    the next is made, so memory holds one step whatever the step count.
    After t steps from the input site x0 only |x - x0| <= t with x - x0 + t
    even can be occupied; every other cell is an exact zero, written "0.0".
    """
    if opts.size == "auto":
        lattice = segment_for(opts.input_site, opts.steps)
    else:
        lattice = Lattice(opts.size, Topology.SEGMENT, origin=opts.input_site - opts.size // 2)
    first, last = lattice.origin, lattice.origin + lattice.size - 1
    if opts.kind == "interface" and not first <= 0 < last:
        raise ConfigError(f"input_site: the segment [{first}, {last}] around input site "
                          f"{opts.input_site} misses the interface bond (0, 1); "
                          f"choose an input site nearer the interface")
    if opts.kind == "uniform":
        profile = make_coin_profile("uniform", lattice, phi=opts.phi1)
    else:
        profile = make_coin_profile(opts.kind, lattice, phi1=opts.phi1, phi2=opts.phi2)
    coords = lattice.coords()
    primed = _coin_factors(profile.angles / 2)  # C(phi_x / 2), as in to_frame

    def block(t, amps):
        cols = [np.full(coords.size, t), coords]
        for frame in opts.frame:
            cols += [np.abs(c) ** 2 for c in (amps.T if frame is Frame.LAB
                                               else _coin(amps, primed))]
        return cols

    amps = prepare_input(opts.input_site, opts.plates, lattice).amplitudes.astype(complex)
    walk = itertools.chain([amps], advance(amps, profile, opts.steps))
    with _Output(opts.out) as out:
        out.table(["step", "x"] + [f"p_{f.value}_{c}" for f in opts.frame for c in "hv"],
                  itertools.starmap(block, enumerate(walk)))
        # the walk has run: the buffer holds the final state
        probs = (np.abs(amps) ** 2).sum(axis=1)
        out.note("kind", opts.kind)
        out.note("steps", opts.steps)
        out.note("final_norm", float(np.linalg.norm(amps)))
        out.note("heaviest_site", int(coords[int(np.argmax(probs))]))
        out.note("heaviest_probability", float(probs.max()))
    return 0


def cmd_bands(opts) -> int:
    bands = band_structure(opts.phi1, opts.phi2, resolution=opts.resolution)
    re_lam2 = (bands.eigenvalues ** 2).real
    target = band_condition_value(bands.k_grid, opts.phi1, opts.phi2)
    with _Output(opts.out) as out:
        out.table(["k", "eps1", "eps2", "eps3", "eps4", "re_lambda_sq", "residual"],
                  [[bands.k_grid, *bands.quasienergies.T, re_lam2.mean(axis=1),
                    np.abs(re_lam2 - target[:, None]).max(axis=1)]])
        out.note("phi1", opts.phi1)
        out.note("phi2", opts.phi2)
        out.note("resolution", opts.resolution)
        out.note("gap_at_real", bands.gap_at_real())
        out.note("gap_at_imag", bands.gap_at_imag())
    return 0


def cmd_winding(opts) -> int:
    fwd = winding_numbers(opts.phi1, opts.phi2, opts.resolution)
    rev = winding_numbers(opts.phi2, opts.phi1, opts.resolution)

    with _Output(opts.out) as out:
        for tag, rep in (("forward", fwd), ("swapped", rev)):
            out.write_text(f"[{tag}] phi1={_fmt(rep.phi1)} phi2={_fmt(rep.phi2)} "
                           f"resolution={rep.resolution}\n")
            out.write_text(f"[{tag}] gap_at_real={_fmt(rep.gap_at_real)} "
                           f"gap_at_imag={_fmt(rep.gap_at_imag)}\n")
            for b, (wv, res) in enumerate(zip(rep.windings, rep.residuals)):
                out.write_text(f"[{tag}] band{b} w_alpha={wv[0]} w_beta={wv[1]} "
                               f"w_gamma={wv[2]} residual={_fmt(res)}\n")
        for b, (wf, wr) in enumerate(zip(fwd.windings, rev.windings)):
            diff = tuple(a - c for a, c in zip(wf, wr))
            out.write_text(f"[difference] band{b} dw_alpha={diff[0]} dw_beta={diff[1]} "
                           f"dw_gamma={diff[2]}\n")
        out.note("any_band_differs",
                 any(wf != wr for wf, wr in zip(fwd.windings, rev.windings)))
    return 0


def cmd_midgap(opts) -> int:
    profile = ring_with_interfaces(opts.n, opts.phi1, opts.phi2)
    spectrum = full_spectrum(profile)
    states = find_midgap(spectrum, opts.tol)

    def block(j, st):
        probs = (np.abs(st.amplitudes) ** 2).sum(axis=1)
        sites = np.flatnonzero(probs > 1e-10)
        # one site at a time: scalar complex arithmetic rounds unlike array loops
        stokes = np.array([site_polarization(st, profile, x) for x in sites.tolist()])
        return [np.full(sites.size, j), sites, probs[sites], *stokes.T]

    blocks = [block(j, st) for j, st in enumerate(states)]
    with _Output(opts.out) as out:
        out.table(["state", "x", "prob", "s1", "s2", "s3"], blocks)
        out.note("n", opts.n)
        out.note("midgap_count", len(states))
        for j, st in enumerate(states):
            lam = st.eigenvalue
            anom = anomaly_expectation(st, profile)
            out.note(f"state{j}",
                     f"lambda=({_fmt(lam.real)},{_fmt(lam.imag)}) center={st.center} "
                     f"anomaly={_fmt(anom)} decay_length={_fmt(st.decay_length)} "
                     f"fit_r2={_fmt(st.fit_r2)}")
    return 0


def cmd_scan(opts) -> int:
    lattice = segment_for(1, opts.steps)
    scan = long_time_extrapolation if opts.cell else qwp_scan
    curves = {}
    for kind in ("interface", "bulk"):
        profile = make_coin_profile(kind, lattice, phi1=opts.phi1, phi2=opts.phi2)
        curves[kind] = scan(profile, opts.steps, opts.probe_site, opts.angles)

    with _Output(opts.out) as out:
        out.table(["angle_deg", "interface", "bulk"],
                  [[opts.angles, curves["interface"].intensities, curves["bulk"].intensities]])
        out.note("steps", opts.steps)
        out.note("probe_site", opts.probe_site)
        out.note("cell_probe", opts.cell)
        for kind in ("interface", "bulk"):
            vals = curves[kind].intensities
            out.note(f"{kind}_max", float(vals.max()))
            out.note(f"{kind}_min", float(vals.min()))
            out.note(f"{kind}_range", float(vals.max() - vals.min()))
    return 0


def cmd_tomo(opts) -> int:
    lattice = segment_for(1, opts.steps)
    profile = make_coin_profile("interface", lattice, phi1=opts.phi1, phi2=opts.phi2)
    final = evolve(prepare_input(1, opts.plates, lattice), profile, opts.steps)
    rng = np.random.default_rng(opts.seed)
    fits = []
    for frame in opts.frame:
        intens = measure_bases(final, opts.site, frame, profile)
        if opts.noise > 0:
            intens = jitter_intensities(intens, opts.noise, rng)
        rho = tomography(intens)
        spinor = to_frame(final, profile, frame).amplitudes[lattice.index(opts.site)]
        fits.append((frame.value, rho, pure_state_fidelity(rho, spinor), rho.decomposition()))

    with _Output(opts.out) as out:
        for tag, rho, fid, (amp_h, amp_v, phase) in fits:
            for (r, c), val in np.ndenumerate(rho.matrix):
                out.write_text(f"rho_{tag}_{r}{c} = {_fmt(val.real)} {_fmt(val.imag)}\n")
            out.note(f"{tag}_amp_h", amp_h)
            out.note(f"{tag}_amp_v", amp_v)
            out.note(f"{tag}_phase_over_pi", phase / np.pi)
            out.note(f"{tag}_fidelity", fid)
            out.note(f"{tag}_clipped", rho.clipped)
        out.note("site", opts.site)
        out.note("steps", opts.steps)
        out.note("site_probability", float(final.site_probability(opts.site)))
    return 0


# name -> (run, help, settings).  Each setting is declared once, as key ->
# (flag or None for config-only, parser, default, help): the flag beats the
# config file, which beats the default, and all three go through the parser.
_COMMANDS = {
    "evolve": (cmd_evolve, "record a walk trajectory", {
        **_common(1.29, 0.17),
        "kind": ("--kind", _Choice(bulk="bulk", interface="interface", uniform="uniform"),
                 "interface", None),
        "steps": ("--steps", _count, 13, None),
        "input_site": ("--input-site", _integer, 1, None),
        "plates": _PLATES,
        "frame": ("--frame", _FRAMES, "both", "probability basis to emit (default both)"),
        "size": (None, _size, "auto", None),
    }),
    "bands": (cmd_bands, "band structure over the Brillouin zone", {
        **_common(1.0, 0.2),
        "resolution": ("--resolution", _at_least(_integer, 1), 512, None),
    }),
    "winding": (cmd_winding, "torus-angle winding numbers, both angle orders", {
        **_common(1.29, 0.17),
        "resolution": ("--resolution", _at_least(_integer, 256), 1024, None),
    }),
    "midgap": (cmd_midgap, "interface-ring midgap states and anomaly", {
        **_common(1.29, 0.17),
        "n": ("--n", _integer, 40, "ring size (even, >= 12)"),
        "tol": ("--tol", _at_least(_real, 0, strict=True), None, "midgap detection tolerance"),
    }),
    "scan": (cmd_scan, "trapped intensity vs input QWP angle", {
        **_common(1.29, 0.17),
        "steps": ("--steps", _count, 13, None),
        "probe_site": ("--probe-site", _integer, 0, None),
        "angles": ("--angles", _parse_grid, "0:180:1", "grid start:stop:step in degrees"),
        "cell": ("--cell", _boolean, False, "sum the probe bond pair (for long runs)"),
    }),
    "tomo": (cmd_tomo, "site polarization tomography", {
        **_common(1.29, 0.17),
        "steps": ("--steps", _count, 17, None),
        "site": ("--site", _integer, 0, None),
        "plates": _PLATES,
        "frame": ("--frame", _FRAMES, "both", "reconstruction basis (default both)"),
        "noise": ("--noise", _at_least(_real, 0), 0.0, "relative intensity jitter"),
        "seed": ("--seed", _count, 0, None),
    }),
}

# argparse action of the flags that are not a single string
_ACTIONS = {"cell": {"action": "store_const", "const": True}, "plates": {"action": "append"}}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="susyqw",
        description="single-step quantum walk: dynamics, bands, winding, "
                    "midgap states and polarization tomography")
    parser.add_argument("--version", action="version", version=f"susyqw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_run, help_text, table) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run configuration")
        for key, (flag, parse, _default, flag_help) in table.items():
            if flag is not None:
                metavar = "{%s}" % ",".join(parse) if isinstance(parse, _Choice) else None
                p.add_argument(flag, dest=key, help=flag_help, metavar=metavar,
                               **_ACTIONS.get(key, {}))
    return parser


def _resolve(command: str, args: argparse.Namespace) -> argparse.Namespace:
    """Each setting of ``command``: its flag, else the config, else its default."""
    table = _COMMANDS[command][2]
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(cfg) - set(table)
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    settings = {}
    for key, (_flag, parse, default, _help) in table.items():
        raw = getattr(args, key, None)
        if raw is None:
            raw = cfg.get(key, default)
        try:
            settings[key] = None if raw is None and default is None else parse(raw)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return argparse.Namespace(**settings)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_resolve(args.command, args))
    except (ConfigError, ProfileError) as exc:  # a bad ring, segment or site is user input
        print(f"susyqw: configuration error: {exc}", file=sys.stderr)
        return 2
    except (SusyqwError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"susyqw: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
