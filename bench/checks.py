"""Output checks: each invocation's output against invariants or references.

The tolerances are those of the test suite.  A check returns a list of
problems; an empty list means the output is correct.  The criterion-6
0.80-0.85 window is not checked: the loss-free model misses it by design.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np
from susyqw import walk

from workloads import Invocation

NORM_TOL = 1e-12
DISPERSION_TOL = 1e-10
ANOMALY_TOL = 1e-3
WINDING_TOL = 1e-6
FIDELITY_TOL = 1e-9
SCAN_TOL = 1e-12

_STATE = re.compile(r"lambda=\(([^,]+),([^)]+)\) .*anomaly=(\S+)")
_BAND = re.compile(r"^\[(forward|swapped)\] band\d w_alpha=(-?\d+) w_beta=(-?\d+) "
                   r"w_gamma=(-?\d+) residual=(\S+)$", re.M)


def summary(stdout: str) -> dict[str, str]:
    """The ``# key = value`` summary block the command printed."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            out[key] = value
    return out


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def check_evolve(inv: Invocation, stdout: str) -> list[str]:
    norm = float(summary(stdout)["final_norm"])
    return [] if abs(norm - 1.0) <= NORM_TOL else [f"final_norm {norm!r}"]


def check_bands(inv: Invocation, stdout: str) -> list[str]:
    rows = _csv_rows(inv.out)[1:]
    resolution = int(inv.command.argv[inv.command.argv.index("--resolution") + 1])
    if len(rows) != resolution:
        return [f"{len(rows)} k rows, expected {resolution}"]
    worst = max(float(row[-1]) for row in rows)
    return [] if worst <= DISPERSION_TOL else [f"dispersion residual {worst!r}"]


def _gap_at_imag(phi1: float, phi2: float) -> float:
    """Analytic quasi-energy gap at lambda = +-i of the bulk dispersion."""
    c_min = -abs(np.cos(phi1) * np.cos(phi2)) - np.sin(phi1) * np.sin(phi2)
    return float((np.pi - np.arccos(np.clip(c_min, -1.0, 1.0))) / 2)


def check_midgap(inv: Invocation, stdout: str) -> list[str]:
    info = summary(stdout)
    states = [_STATE.search(v) for k, v in info.items() if k.startswith("state")]
    if info.get("midgap_count") != "4" or len(states) != 4 or None in states:
        return [f"expected 4 midgap states, got {info.get('midgap_count')}"]
    tol = 1e-4 * _gap_at_imag(inv.phi1, inv.phi2)
    problems = []
    pinned = []
    for m in states:
        lam = complex(float(m.group(1)), float(m.group(2)))
        pinned.append(1 if abs(lam - 1j) < tol else -1 if abs(lam + 1j) < tol else 0)
        anomaly = float(m.group(3))
        if abs(anomaly + 1.0) > ANOMALY_TOL:
            problems.append(f"anomaly {anomaly!r}")
    if sorted(pinned) != [-1, -1, 1, 1]:
        problems.append(f"eigenvalues not two at +i and two at -i within {tol:.3g}")
    return problems


def check_winding(inv: Invocation, stdout: str) -> list[str]:
    text = inv.out.read_text(encoding="utf-8")
    bands = _BAND.findall(text)
    if len(bands) != 8:
        return [f"{len(bands)} band winding lines, expected 8"]
    worst = max(float(b[4]) for b in bands)
    return [] if worst <= WINDING_TOL else [f"winding residual {worst!r}"]


def check_tomo(inv: Invocation, stdout: str) -> list[str]:
    info = summary(stdout)
    problems = []
    for frame in ("lab", "primed"):
        fid = float(info[f"{frame}_fidelity"])
        if fid < 1.0 - FIDELITY_TOL:
            problems.append(f"{frame} fidelity {fid!r}")
    return problems


def _qwp_coin(theta_deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Components (H, V) of QWP(theta)|H>: R(theta) diag(1, i) R(-theta) |H>."""
    th = np.deg2rad(theta_deg)
    c, s = np.cos(th), np.sin(th)
    return c * c + 1j * s * s, s * c * (1 - 1j)


def check_scan(inv: Invocation, stdout: str) -> list[str]:
    """Intensities against the quadratic form of two basis evolutions.

    The walk is linear in the input spinor, so the probe intensity of
    a|H> + b|V> is |a|^2 P_HH + |b|^2 P_VV + 2 Re(conj(a) b G_HV), where the
    final states of |H> and |V> come from direct ``walk.evolve`` calls.
    """
    argv = inv.command.argv
    steps = int(argv[argv.index("--steps") + 1])
    probes = [0, 1] if "--cell" in argv else [0]
    rows = _csv_rows(inv.out)[1:]
    table = np.array([[float(x) for x in row] for row in rows])
    if table.shape != (180, 3):
        return [f"scan table shape {table.shape}, expected (180, 3)"]
    a, b = _qwp_coin(table[:, 0])
    lattice = walk.segment_for(1, steps)
    problems = []
    for col, kind in ((1, "interface"), (2, "bulk")):
        profile = walk.make_coin_profile(kind, lattice, phi1=inv.phi1, phi2=inv.phi2)
        finals = [walk.evolve(walk.localized_state(lattice, 1, coin), profile, steps)
                  for coin in ((1.0, 0.0), (0.0, 1.0))]
        sel = [lattice.index(x) for x in probes]
        h, v = (f.amplitudes[sel].ravel() for f in finals)
        p_hh, p_vv = np.vdot(h, h).real, np.vdot(v, v).real
        g_hv = np.vdot(h, v)
        expected = (np.abs(a) ** 2 * p_hh + np.abs(b) ** 2 * p_vv
                    + 2 * np.real(np.conj(a) * b * g_hv))
        err = float(np.abs(table[:, col] - expected).max())
        if err > SCAN_TOL:
            problems.append(f"{kind} intensities off the basis quadratic form by {err:.3g}")
    return problems


CHECKS = {"scan": check_scan, "tomo": check_tomo, "midgap": check_midgap,
          "bands": check_bands, "winding": check_winding, "evolve": check_evolve}


def check(inv: Invocation, code: int, stdout: str) -> list[str]:
    """Problems with one invocation's exit code and output; empty when correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        return CHECKS[inv.command.argv[0]](inv, stdout)
    except (KeyError, ValueError, OSError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
