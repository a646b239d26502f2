"""Waveplate input preparation, three-basis measurement and Stokes tomography.

Basis conventions (primed or lab alike): D/A = (|H> +- |V>)/sqrt(2),
R/L = (|H> +- i|V>)/sqrt(2), so S3 = I_R - I_L equals ⟨sigma_y⟩ and the
midgap circular state on even sites carries S3 = +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UnoccupiedSiteError
from .walk import CoinProfile, Frame, WalkerState, Lattice, Topology, \
    localized_state, evolve, resize_profile, segment_for, to_frame
from .operators import SX, SY, SZ, rotation

_PLATE_RETARDANCE = {"qwp": np.diag([1.0, 1j]), "hwp": np.diag([1.0, -1.0])}


def waveplate(kind: str, theta_deg) -> np.ndarray:
    """Jones matrix of a wave plate with fast axis at theta_deg from horizontal.

    An array of angles gives one matrix per angle, shape (..., 2, 2).
    """
    try:
        ret = _PLATE_RETARDANCE[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown waveplate kind {kind!r} (use 'qwp' or 'hwp')") from None
    th = np.deg2rad(theta_deg)
    rot, back = (np.moveaxis(rotation(a), (0, 1), (-2, -1)) for a in (th, -th))
    return rot @ ret.astype(complex) @ back


def prepare_input(x0: int, plates: Sequence, lattice: Lattice) -> WalkerState:
    """|x0> tensor (plate chain applied to |H>), first listed plate acts first."""
    coin = np.array([1.0, 0.0], dtype=complex)
    for plate in plates:
        mat = waveplate(*plate) if isinstance(plate, (tuple, list)) \
            else np.asarray(plate, dtype=complex)
        coin = mat @ coin
    return localized_state(lattice, x0, coin)


@dataclass(frozen=True)
class BasisIntensities:
    """Projective intensities in the H/V, diagonal and circular bases."""

    i_h: float
    i_v: float
    i_d: float
    i_a: float
    i_r: float
    i_l: float
    site: int = 0
    step: int = 0
    frame: Frame = Frame.LAB

    def total(self) -> float:
        return self.i_h + self.i_v


def measure_bases(state: WalkerState, x: int, frame: Frame = Frame.LAB,
                  profile: CoinProfile | None = None) -> BasisIntensities:
    """Project the site amplitude pair onto the three measurement bases."""
    if frame is Frame.PRIMED:
        if profile is None:
            raise ValueError("primed-frame measurement needs the coin profile")
        state = to_frame(state, profile, Frame.PRIMED)
    h, v = state.amplitudes[state.lattice.index(x)]
    i_h, i_v = abs(h) ** 2, abs(v) ** 2
    i_d, i_a = abs(h + v) ** 2 / 2, abs(h - v) ** 2 / 2
    i_r, i_l = abs(h - 1j * v) ** 2 / 2, abs(h + 1j * v) ** 2 / 2
    return BasisIntensities(float(i_h), float(i_v), float(i_d), float(i_a),
                            float(i_r), float(i_l), int(x), state.t, frame)


def jitter_intensities(intens: BasisIntensities, rel: float,
                       rng: np.random.Generator) -> BasisIntensities:
    """Multiplicative relative intensity noise, clamped at zero."""
    raw = np.array([intens.i_h, intens.i_v, intens.i_d, intens.i_a, intens.i_r, intens.i_l])
    noisy = np.maximum(raw * (1.0 + rel * rng.standard_normal(6)), 0.0)
    return BasisIntensities(*map(float, noisy), intens.site, intens.step, intens.frame)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """2x2 Hermitian polarization state at one (site, step), trace in (0, 1]."""

    matrix: np.ndarray
    frame: Frame
    site: int
    step: int
    clipped: bool = False

    def decomposition(self) -> tuple[float, float, float]:
        """(|H| amplitude, |V| amplitude, relative phase) of the normalized state.

        The phase is arg(<V| rho |H>) in (-pi, pi]; exact for pure states.
        """
        rho = self.matrix / np.trace(self.matrix).real
        a = float(np.sqrt(max(rho[0, 0].real, 0.0)))
        b = float(np.sqrt(max(rho[1, 1].real, 0.0)))
        return a, b, float(np.angle(rho[1, 0]))


def tomography(intens: BasisIntensities) -> DensityMatrix:
    """Stokes reconstruction rho = (S0 + S1 sz + S2 sx + S3 sy)/2.

    Negative eigenvalues beyond -1e-10 (possible with noisy intensities) are
    clipped to zero and the trace restored, with the ``clipped`` flag set.
    """
    s0 = intens.i_h + intens.i_v
    if s0 <= 0:
        raise UnoccupiedSiteError("zero total intensity")
    s1 = intens.i_h - intens.i_v
    s2 = intens.i_d - intens.i_a
    s3 = intens.i_r - intens.i_l
    rho = (s0 * np.eye(2) + s1 * SZ + s2 * SX + s3 * SY) / 2
    rho = (rho + rho.conj().T) / 2
    clipped = False
    evals, evecs = np.linalg.eigh(rho)
    if evals.min() < -1e-10:
        pos = np.clip(evals, 0.0, None)
        rho = (evecs * pos) @ evecs.conj().T
        rho *= s0 / np.trace(rho).real
        clipped = True
    return DensityMatrix(rho, intens.frame, intens.site, intens.step, clipped)


def pure_state_fidelity(rho: DensityMatrix, coin: np.ndarray) -> float:
    """<psi| rho |psi> / tr(rho) for a pure comparison spinor."""
    psi = np.asarray(coin, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return float((np.vdot(psi, rho.matrix @ psi).real) / np.trace(rho.matrix).real)


@dataclass(frozen=True, eq=False)
class ScanCurve:
    """Trapped intensity versus input QWP angle at a fixed probe."""

    angles_deg: np.ndarray
    intensities: np.ndarray
    tag: str                 # profile kind: bulk / interface / ...
    steps: int
    x_probe: int
    sphere_max: float        # probe maximum over every input polarization
    cell_probe: bool = False  # True when the probe sums the bond pair (x, x+1)


def _scan_lattice(profile: CoinProfile, x0: int, steps: int) -> CoinProfile:
    lat = profile.lattice
    if (lat.topology is Topology.SEGMENT
            and lat.origin <= x0 - steps - 1
            and lat.origin + lat.size - 1 >= x0 + steps + 1):
        return profile
    return resize_profile(profile, segment_for(x0, steps))


def _run_scan(profile: CoinProfile, steps: int, x_probe: int,
              angles_deg: np.ndarray, cell_probe: bool, x0: int) -> ScanCurve:
    """Probe intensities of QWP(theta)|H> inputs by linearity of the walk.

    The final state of a|H> + b|V> is a psi_H + b psi_V, so with the probe
    amplitudes of the two basis evolutions as the columns of Psi, the probe
    intensity of the input spinor c is c^dag G c with G = Psi^dag Psi.  The
    largest eigenvalue of G is the maximum over the whole polarization sphere.
    """
    if angles_deg.size == 0:
        raise ValueError("angle grid is empty")
    prof = _scan_lattice(profile, x0, steps)
    lattice = prof.lattice
    rows = [lattice.index(x) for x in (x_probe, x_probe + 1)[:1 + cell_probe]]
    finals = [evolve(localized_state(lattice, x0, coin), prof, steps)
              for coin in ((1.0, 0.0), (0.0, 1.0))]
    psi = np.stack([final.amplitudes[rows].ravel() for final in finals], axis=1)
    gram = psi.conj().T @ psi
    coins = waveplate("qwp", angles_deg)[:, :, 0]
    vals = np.einsum("ka,ab,kb->k", coins.conj(), gram, coins).real
    return ScanCurve(np.asarray(angles_deg, dtype=float), vals, profile.kind, steps,
                     x_probe, sphere_max=float(np.linalg.eigvalsh(gram)[-1]),
                     cell_probe=cell_probe)


def qwp_scan(profile: CoinProfile, steps: int, x_probe: int,
             angles_deg: Sequence[float], x0: int = 1) -> ScanCurve:
    """Evolve QWP(theta)|H> inputs and record the probability at the probe site."""
    return _run_scan(profile, steps, x_probe, np.asarray(angles_deg, dtype=float),
                     cell_probe=False, x0=x0)


def long_time_extrapolation(profile: CoinProfile, steps: int = 100, x_probe: int = 0,
                            angles_deg: Sequence[float] | None = None,
                            x0: int = 1) -> ScanCurve:
    """Long-run scan of the intensity trapped on the interface bond.

    The walker alternates between the two site parities, so a single site is
    empty at every other step count; the probe therefore sums the bond pair
    (x_probe, x_probe + 1).  The lattice is auto-sized for the step count.
    """
    if angles_deg is None:
        angles_deg = np.arange(0.0, 180.0, 1.0)
    return _run_scan(profile, steps, x_probe, np.asarray(angles_deg, dtype=float),
                     cell_probe=True, x0=x0)
