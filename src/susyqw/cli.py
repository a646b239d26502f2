"""Command-line front end: evolve, bands, winding, midgap, scan, tomo.

All commands are deterministic given their configuration (including the
noise seed): on one host, that is one NumPy SIMD target and one BLAS kernel
set, identical invocations produce byte-identical output.  Across SIMD
targets and BLAS kernel sets the text, integers and line count stay equal
and floats stay within 6.1e-15 (``tests/test_expected_output.py``).  Each
command computes and formats its result, then hands it to the one writer,
``_emit``: data go to ``--out`` (or stdout), followed by a summary block of
``# key = value`` lines.  An existing regular ``--out`` is cut to its
first byte, never to zero, before it is written.  Exit codes: 0 success, 2
configuration error, 3 numerical failure (including an array size the host
cannot allocate, or a site past the int64 range) or a body or summary that
cannot be written to ``--out`` or stdout (a full disk, a closed pipe).

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
from .bloch import _band_energies, winding_numbers
from .errors import ConfigError, ProfileError, SusyqwError
from .midgap import (anomaly_expectation, find_midgap, midgap_spectrum,
                     ring_with_interfaces, site_polarizations)
from .optics import (jitter_intensities, measure_bases, prepare_input,
                     pure_state_fidelity, scan, tomography)
from .walk import (Frame, _coin, _coin_factors, advance, evolve, make_coin_profile,
                   segment_for, to_frame)


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


def _string(value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"must be a string, got {value!r}")
    return value


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
    """Angle in its native unit; a string may carry a rad/deg suffix."""
    unit = default_unit
    if isinstance(value, str) and value.strip()[-3:].lower() in ("rad", "deg"):
        value, unit = value.strip()[:-3], value.strip()[-3:].lower()
    out = _real(value)
    if unit != default_unit:  # read again: 1e308 rad is no finite number of degrees
        out = _real(math.degrees(out) if unit == "rad" else math.radians(out))
    return out


def _parse_plates(raw) -> list[tuple[str, float]]:
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"must be a list, got {raw!r}")
    plates = []
    for item in raw:
        pair = item.split(":") if isinstance(item, str) else item
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"plate {item!r} must be \"kind:angle\" or [kind, angle]")
        kind, angle = pair
        plates.append((_PLATE_KINDS(str(kind).lower()), _parse_angle(angle, "deg")))
    return plates


def _parse_grid(spec) -> np.ndarray:
    fields = spec.split(":") if isinstance(spec, str) else ()
    if len(fields) != 3:
        raise ConfigError(f"angle grid {spec!r} must be start:stop:step (degrees)")
    start, stop, step = map(_real, fields)
    if step <= 0 or stop <= start:
        raise ConfigError(f"empty angle grid {spec!r}")
    return np.arange(start, stop, step)


_count = _at_least(_integer, 0)
_FRAMES = _Choice(lab=(Frame.LAB,), primed=(Frame.PRIMED,), both=(Frame.LAB, Frame.PRIMED))
_PLATE_KINDS = _Choice(qwp="qwp", hwp="hwp")
_PLATES = ("--plate", _parse_plates, (),
           "input waveplate kind:angle, repeatable (e.g. qwp:137deg)")


def _common(phi1: float, phi2: float) -> dict:
    """The rows every command has: output file and the two coin angles."""
    return {"out": ("--out", _string, None, "output file (default: stdout)"),
            "phi1": ("--phi1", _parse_angle, phi1,
                     "first coin angle (radians; rad/deg suffix allowed)"),
            "phi2": ("--phi2", _parse_angle, phi2, "second coin angle (radians)")}


def _table(header: list[str], blocks):
    """The header line, then one text part per block of equal-length 1-d columns.

    A block is formatted only when the part before it has been taken, so a
    lazy ``blocks`` is held one block at a time.  A cell is the ``repr`` of
    the column's int or float: the shortest text that reads back as the same
    float64.  ``repr`` runs once per distinct int and once per float other
    than +0.0; a +0.0, as outside the light cone of ``evolve``, is the
    constant "0.0".
    """
    yield ",".join(header) + "\n"
    int_text: dict[int, str] = {}
    for block in blocks:
        rows = map(",".join, zip(*(_cells(col, int_text) for col in block)))
        # the final "" ends the last row; text + "\n" would copy the block
        yield "\n".join([*rows, ""])


def _summary(notes) -> str:
    """``# key = value`` per ``(key, value)``; a float, NumPy's included, by ``_fmt``."""
    return "".join(f"# {key} = {_fmt(v) if isinstance(v, (float, np.floating)) else v}\n"
                   for key, v in notes)


def _emit(out_path: str | None, parts, notes) -> None:
    """Write ``parts``, then the summary of ``notes``, to ``--out`` or stdout.

    The one writer of every command.  The summary is made once ``parts`` is
    exhausted, so a lazy body (``evolve``'s, whose walk runs as it is
    written) may add to ``notes`` as it ends; after an ``--out`` file it is
    echoed to stdout.  Every other command passes a body already made, so
    its failed computation leaves an existing ``--out`` untouched.  An
    ``--out`` that cannot be opened is a configuration error.  On any
    exception the ``--out`` file is closed and removed where it is a regular
    file (a symlink, pipe or device written through stays); text already
    written to stdout stays there.

    ``--out`` is never opened with ``O_TRUNC`` and never cut to zero bytes:
    on ext4 a file cut to size 0 is written back when it is closed (the
    ``auto_da_alloc`` replace-via-truncate rule), and a cut to a non-zero
    length is not (figures in ``BENCH_33.json``).  An existing regular file
    longer than one byte is cut to its first byte, then written over (every
    command writes at least a summary line); a pipe or device is written
    through.  A run killed meanwhile leaves that byte or a prefix of the new
    text, never an earlier file's summary.
    """
    if out_path is None:
        sys.stdout.writelines(parts)
        sys.stdout.write(_summary(notes))
        return
    try:
        fh = open(out_path, "w", encoding="utf-8",
                  opener=lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666))
    except OSError as exc:
        raise ConfigError(f"out: cannot write: {exc}") from None
    try:
        with fh:
            earlier = os.fstat(fh.fileno())
            if stat.S_ISREG(earlier.st_mode) and earlier.st_size > 1:  # a pipe: never cut
                os.ftruncate(fh.fileno(), 1)  # one byte, not 0: no flush on close
            fh.writelines(parts)
            fh.write(tail := _summary(notes))
    except BaseException:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(out_path).st_mode):
                os.remove(out_path)
        raise
    sys.stdout.write(tail)


def _cells(col: np.ndarray, int_text: dict[int, str]) -> list[str]:
    """The ``repr`` of each entry of a 1-d column: int64 (step, x, state) or float64.

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
    try:
        return list(map(int_text.__getitem__, values))
    except KeyError:  # ints this table has not written yet
        distinct = set(values)
        int_text.update(zip(distinct, map(repr, distinct)))
    return list(map(int_text.__getitem__, values))


# Rows of an ``evolve`` table block, filled with whole steps: a 13-step walk
# (31 sites) writes its 14 steps as one block, a 300-step walk (605 sites)
# one step per block.  At 4096 rows, six of its steps, the 300-step walk's
# in-process peak RSS rose from 31.2 to 32.6 MB.
_BLOCK_ROWS = 1024


def _fmt(x) -> str:
    return repr(float(x))


def cmd_evolve(opts) -> None:
    """Per-site probabilities of every step of a walk, written in blocks of whole steps.

    Each step is advanced and copied into a block of at most ``_BLOCK_ROWS``
    rows (one step where a step alone has more); a full block is changed to
    the requested frames and written before the walk goes on, so memory
    holds one block whatever the step count.  After t steps from the input
    site x0 only |x - x0| <= t with x - x0 + t even can be occupied; every
    other cell is an exact zero, written "0.0".
    """
    lattice = segment_for(opts.input_site, opts.steps)
    first, last = lattice.origin, lattice.origin + lattice.size - 1
    if opts.kind == "interface" and not first <= 0 < last:
        raise ConfigError(f"input_site: the segment [{first}, {last}] around input site "
                          f"{opts.input_site} misses the interface bond (0, 1); "
                          f"choose an input site nearer the interface")
    profile = make_coin_profile(opts.kind, lattice, phi=opts.phi1, phi1=opts.phi1, phi2=opts.phi2)
    coords = lattice.coords()
    primed = _coin_factors(profile.angles / 2)  # C(phi_x / 2), as in to_frame

    per_block = max(1, _BLOCK_ROWS // coords.size)  # whole steps in a table block
    t_col, x_col = np.repeat(np.arange(per_block), coords.size), np.tile(coords, per_block)

    amps = prepare_input(opts.input_site, opts.plates, lattice).amplitudes.astype(complex)
    lab = amps.T  # the (h, v) rows of the walk buffer
    walk = itertools.chain([lab], advance(lab, profile.angles, lattice.topology, opts.steps))
    notes = [("kind", opts.kind), ("steps", opts.steps)]

    def blocks():
        chunk = np.empty((per_block, *lab.shape), complex)
        for t0 in range(0, opts.steps + 1, per_block):
            held = chunk[:opts.steps + 1 - t0]  # steps t0, t0 + 1, ... of this block
            for k, live in zip(range(len(held)), walk):
                held[k] = live
            hv = held[:, 0], held[:, 1]
            cols = [t_col[:hv[0].size] + t0, x_col[:hv[0].size]]
            for frame in opts.frame:
                cols += [(np.abs(c) ** 2).ravel() for c in (hv if frame is Frame.LAB
                                                             else _coin(*hv, primed))]
            yield cols

    def body():
        yield from _table(["step", "x"] + [f"p_{f.value}_{c}" for f in opts.frame for c in "hv"],
                          blocks())
        # the walk has run: the buffer holds the final state
        probs = (np.abs(amps) ** 2).sum(axis=1)
        notes.extend([("final_norm", np.linalg.norm(amps)),
                      ("heaviest_site", int(coords[int(np.argmax(probs))])),
                      ("heaviest_probability", probs.max())])

    _emit(opts.out, body(), notes)


def cmd_bands(opts) -> None:
    bands = _band_energies(opts.phi1, opts.phi2, resolution=opts.resolution)
    table = [*_table(["k", "eps1", "eps2", "eps3", "eps4", "re_lambda_sq", "residual"],
                     [[bands.k_grid, *bands.quasienergies.T,
                       (bands.eigenvalues ** 2).real.mean(axis=1),
                       bands.dispersion_residuals(opts.phi1, opts.phi2).max(axis=1)]])]
    _emit(opts.out, table, [("phi1", opts.phi1), ("phi2", opts.phi2),
                            ("resolution", opts.resolution),
                            ("gap_at_real", bands.gap_at_real()),
                            ("gap_at_imag", bands.gap_at_imag())])


def cmd_winding(opts) -> None:
    fwd = winding_numbers(opts.phi1, opts.phi2, opts.resolution)
    rev = fwd.swapped()
    lines = []
    for tag, rep in (("forward", fwd), ("swapped", rev)):
        lines.append(f"[{tag}] phi1={_fmt(rep.phi1)} phi2={_fmt(rep.phi2)} "
                     f"resolution={rep.resolution}\n")
        lines.append(f"[{tag}] gap_at_real={_fmt(rep.gap_at_real)} "
                     f"gap_at_imag={_fmt(rep.gap_at_imag)}\n")
        for b, (wv, res) in enumerate(zip(rep.windings, rep.residuals)):
            lines.append(f"[{tag}] band{b} w_alpha={wv[0]} w_beta={wv[1]} "
                         f"w_gamma={wv[2]} residual={_fmt(res)}\n")
    for b, (wf, wr) in enumerate(zip(fwd.windings, rev.windings)):
        diff = tuple(a - c for a, c in zip(wf, wr))
        lines.append(f"[difference] band{b} dw_alpha={diff[0]} dw_beta={diff[1]} "
                     f"dw_gamma={diff[2]}\n")
    _emit(opts.out, lines,
          [("any_band_differs", any(wf != wr for wf, wr in zip(fwd.windings, rev.windings)))])


def cmd_midgap(opts) -> None:
    profile = ring_with_interfaces(opts.n, opts.phi1, opts.phi2)
    states = find_midgap(midgap_spectrum(profile, opts.tol), opts.tol)

    def block(j, st):
        probs = (np.abs(st.amplitudes) ** 2).sum(axis=1)
        sites = np.flatnonzero(probs > 1e-10)
        stokes = np.array(site_polarizations(st, profile, sites.tolist()))
        return [np.full(sites.size, j), sites, probs[sites], *stokes.T]

    table = [*_table(["state", "x", "prob", "s1", "s2", "s3"],
                     itertools.starmap(block, enumerate(states)))]
    notes = [("n", opts.n), ("midgap_count", len(states))]
    for j, st in enumerate(states):
        lam = st.eigenvalue
        notes.append((f"state{j}",
                      f"lambda=({_fmt(lam.real)},{_fmt(lam.imag)}) center={st.center} "
                      f"anomaly={_fmt(anomaly_expectation(st, profile))} "
                      f"decay_length={_fmt(st.decay_length)} fit_r2={_fmt(st.fit_r2)}"))
    _emit(opts.out, table, notes)


def _require_reached(key: str, sites: tuple[int, ...], steps: int) -> None:
    """A ConfigError naming ``key`` unless the walk from site 1 can occupy one of ``sites``."""
    if not any(abs(x - 1) <= steps and (x - 1 + steps) % 2 == 0 for x in sites):
        raise ConfigError(f"{key}: the walk from site 1 never occupies site "
                          f"{' or '.join(map(str, sites))} after {steps} steps; it reaches x "
                          f"only where |x - 1| <= steps and x - 1 + steps is even")


def cmd_scan(opts) -> None:
    lattice = segment_for(1, opts.steps)
    kinds = ("interface", "bulk")
    profiles = [make_coin_profile(kind, lattice, phi1=opts.phi1, phi2=opts.phi2) for kind in kinds]
    _require_reached("probe_site", (opts.probe_site, opts.probe_site + 1)[:1 + opts.cell],
                     opts.steps)
    curves = dict(zip(kinds, scan(profiles, opts.steps, opts.probe_site, opts.angles,
                                  cell_probe=opts.cell)))

    table = [*_table(["angle_deg", "interface", "bulk"],
                     [[opts.angles, curves["interface"].intensities, curves["bulk"].intensities]])]
    notes = [("steps", opts.steps), ("probe_site", opts.probe_site), ("cell_probe", opts.cell)]
    for kind in kinds:
        vals = curves[kind].intensities
        notes += [(f"{kind}_max", vals.max()), (f"{kind}_min", vals.min()),
                  (f"{kind}_range", vals.max() - vals.min())]
    _emit(opts.out, table, notes)


def cmd_tomo(opts) -> None:
    lattice = segment_for(1, opts.steps)
    profile = make_coin_profile("interface", lattice, phi1=opts.phi1, phi2=opts.phi2)
    _require_reached("site", (opts.site,), opts.steps)
    final = evolve(prepare_input(1, opts.plates, lattice), profile, opts.steps)
    rng = np.random.default_rng(opts.seed)
    lines, notes = [], []
    for frame in opts.frame:
        framed = to_frame(final, profile, frame)
        intens = measure_bases(framed, opts.site, frame, profile)
        if opts.noise > 0:
            intens = jitter_intensities(intens, opts.noise, rng)
        rho = tomography(intens)
        spinor = framed.amplitudes[lattice.index(opts.site)]
        amp_h, amp_v, phase = rho.decomposition()
        tag = frame.value
        lines += [f"rho_{tag}_{r}{c} = {_fmt(val.real)} {_fmt(val.imag)}\n"
                  for (r, c), val in np.ndenumerate(rho.matrix)]
        notes += [(f"{tag}_amp_h", amp_h), (f"{tag}_amp_v", amp_v),
                  (f"{tag}_phase_over_pi", phase / np.pi),
                  (f"{tag}_fidelity", pure_state_fidelity(rho, spinor)),
                  (f"{tag}_clipped", rho.clipped)]
    notes += [("site", opts.site), ("steps", opts.steps),
              ("site_probability", final.site_probability(opts.site))]
    _emit(opts.out, lines, notes)


# name -> (run, help, settings).  Each setting is declared once, as key ->
# (flag, parser, default, help): the flag beats the config file, which beats
# the default, and all three go through the parser.
_COMMANDS = {
    "evolve": (cmd_evolve, "record a walk trajectory", {
        **_common(1.29, 0.17),
        "kind": ("--kind", _Choice(bulk="bulk", interface="interface", uniform="uniform"),
                 "interface", None),
        "steps": ("--steps", _count, 13, None),
        "input_site": ("--input-site", _integer, 1, None),
        "plates": _PLATES,
        "frame": ("--frame", _FRAMES, "both", "probability basis to emit (default both)"),
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


def _drop_stdout() -> None:
    """Close a stdout that cannot take its pending text, dropping that text.

    The interpreter flushes an open stdout once more as it exits; after
    EPIPE or ENOSPC that flush would fail again and print past the one error
    line.  A closed stdout is skipped there, and closing it writes no file
    (the Python docs' SIGPIPE note points it at ``os.devnull`` instead).
    """
    try:
        sys.stdout.flush()
    except OSError:
        with contextlib.suppress(OSError):
            sys.stdout.close()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command][0](_resolve(args.command, args))
        sys.stdout.flush()  # a stdout that fails now fails here, not at exit
        return 0
    except (ConfigError, ProfileError) as exc:  # a bad ring or site is user input
        print(f"susyqw: configuration error: {exc}", file=sys.stderr)
        return 2
    except (SusyqwError, np.linalg.LinAlgError, ValueError, MemoryError, OverflowError) as exc:
        print(f"susyqw: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # the body or summary could not be written
        print(f"susyqw: cannot write output: {exc}", file=sys.stderr)
        _drop_stdout()
        return 3


if __name__ == "__main__":
    sys.exit(main())
