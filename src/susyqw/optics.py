"""Waveplate input preparation, three-basis measurement and Stokes tomography.

Basis conventions (primed or lab alike): D/A = (|H> +- |V>)/sqrt(2),
R/L = (|H> +- i|V>)/sqrt(2), so S3 = I_R - I_L equals ⟨sigma_y⟩ and the
midgap circular state on even sites carries S3 = +1.
"""

from __future__ import annotations

import sys
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .errors import LatticeMismatchError, UnoccupiedSiteError
from .walk import CoinProfile, Frame, WalkerState, Lattice, Topology, \
    _read_only, advance, localized_state, resize_profile, segment_for, to_frame

# Paulis of the (H, V) polarization, the Stokes basis of ``tomography``
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
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
    rot, back = (_plate_axis(a) for a in (th, -th))
    return rot @ ret.astype(complex) @ back


def _plate_axis(theta) -> np.ndarray:
    """Real rotation of the (H, V) plane by theta (radians), shape (..., 2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.moveaxis(np.array([[c, -s], [s, c]], dtype=complex), (0, 1), (-2, -1))


def prepare_input(x0: int, plates: Sequence, lattice: Lattice) -> WalkerState:
    """|x0> tensor ((kind, angle_deg) plates applied to |H>), first listed plate acts first.

    The amplitudes are read-only, as every ``localized_state``'s are.
    """
    coin = np.array([1.0, 0.0], dtype=complex)
    for plate in plates:
        coin = waveplate(*plate) @ coin
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


def measure_bases(state: WalkerState, x: int, frame: Frame = Frame.LAB,
                  profile: CoinProfile | None = None) -> BasisIntensities:
    """Project the site amplitude pair onto the three bases of ``frame``.

    A state in the other frame is converted first, which needs ``profile``.
    """
    if frame is not state.frame:
        if profile is None:
            raise ValueError(f"{frame.value}-frame measurement needs the coin profile "
                             f"(the state is in the {state.frame.value} frame)")
        state = to_frame(state, profile, frame)
    h, v = state.amplitudes[state.lattice.index(x)]
    i_h, i_v = abs(h) ** 2, abs(v) ** 2
    i_d, i_a = abs(h + v) ** 2 / 2, abs(h - v) ** 2 / 2
    i_r, i_l = abs(h - 1j * v) ** 2 / 2, abs(h + 1j * v) ** 2 / 2
    return BasisIntensities(*map(float, (i_h, i_v, i_d, i_a, i_r, i_l)))


def jitter_intensities(intens: BasisIntensities, rel: float,
                       rng: np.random.Generator) -> BasisIntensities:
    """Multiplicative relative intensity noise, clamped at zero.

    Noise large enough to overflow gives inf (NaN on a zero intensity)
    without a warning; ``tomography`` rejects it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        noisy = np.maximum(np.array(astuple(intens)) * (1.0 + rel * rng.standard_normal(6)), 0.0)
    return BasisIntensities(*map(float, noisy))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """2x2 Hermitian polarization state of one site; trace S0 > 0, above 1 if noisy.

    The matrix is a read-only complex copy of the one given.
    """

    matrix: np.ndarray
    clipped: bool = False

    def __post_init__(self):
        object.__setattr__(self, "matrix", _read_only(np.array(self.matrix, dtype=complex)))

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
    A non-finite intensity, NaN included, raises ValueError, and so do
    Stokes parameters S0-S3 that are not finite or too large for rho in
    float64: |S0| + |S1| + |S2| + |S3| must stay below half the largest
    float64, which keeps rho, its eigenvalues and every sum that forms them
    finite.  A total intensity S0 = I_H + I_V that is not positive raises
    UnoccupiedSiteError.
    """
    values = astuple(intens)
    if not np.isfinite(values).all():
        raise ValueError("basis intensities must be finite")
    i_h, i_v, i_d, i_a, i_r, i_l = map(float, values)  # Python floats overflow silently
    s0, s1, s2, s3 = i_h + i_v, i_h - i_v, i_d - i_a, i_r - i_l
    if not abs(s0) + abs(s1) + abs(s2) + abs(s3) < sys.float_info.max / 2:
        raise ValueError("Stokes parameters out of range: |S0| + |S1| + |S2| + |S3| "
                         "must stay below half the largest float64")
    if not s0 > 0:
        raise UnoccupiedSiteError("zero total intensity")
    rho = (s0 * np.eye(2) + s1 * SZ + s2 * SX + s3 * SY) / 2
    clipped = False
    evals, evecs = np.linalg.eigh(rho)
    if evals.min() < -1e-10:
        pos = np.clip(evals, 0.0, None)
        rho = (evecs * pos) @ evecs.conj().T
        rho *= s0 / np.trace(rho).real
        clipped = True
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho, clipped)


def pure_state_fidelity(rho: DensityMatrix, coin: np.ndarray) -> float:
    """<psi| rho |psi> / tr(rho) for a pure comparison spinor."""
    psi = np.asarray(coin, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return float((np.vdot(psi, rho.matrix @ psi).real) / np.trace(rho.matrix).real)


@dataclass(frozen=True, eq=False)
class ScanCurve:
    """Trapped intensity versus input QWP angle at a fixed probe.

    ``angles_deg`` and ``intensities`` are read-only float copies of the arrays given.
    """

    angles_deg: np.ndarray
    intensities: np.ndarray
    steps: int
    x_probe: int
    sphere_max: float        # probe maximum over every input polarization
    cell_probe: bool = False  # True when the probe sums the bond pair (x, x+1)

    def __post_init__(self):
        for name in ("angles_deg", "intensities"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=float)))


def _scan_lattice(profile: CoinProfile, steps: int) -> CoinProfile:
    """``profile`` where the walk from site 1 stays on it, else re-laid on its segment."""
    lat = profile.lattice
    if (lat.topology is Topology.RING
            or lat.origin <= -steps and lat.origin + lat.size - 1 >= steps + 2):
        return profile
    return resize_profile(profile, segment_for(1, steps))


def scan(profiles: Sequence[CoinProfile], steps: int, x_probe: int,
         angles_deg: Sequence[float], cell_probe: bool = False) -> list[ScanCurve]:
    """Probe intensities of QWP(theta)|H> inputs at site 1, one curve per profile, by linearity.

    The final state of a|H> + b|V> is a psi_H + b psi_V, so with the probe
    amplitudes of the two basis evolutions as the columns of Psi, the probe
    intensity of the input spinor c is c^dag G c with G = Psi^dag Psi.  The
    largest eigenvalue of G is the maximum over the whole polarization sphere.

    Every walk starts at the injection site x = 1.  A ring profile is walked
    on its ring, where the walk wraps; a segment that does not cover the walk
    is first re-laid on ``segment_for(1, steps)``.  The profiles must then
    share one lattice (LatticeMismatchError otherwise).  All their basis
    walks advance as one real array in the real gauge (h, -i v) of
    ``advance``: |H> starts as (1, 0) and |V> as -i times the walk from
    (0, 1).  Lab amplitudes are formed only at the probe: psi_H = (h, i v)
    and psi_V = (-i h, v).
    Negative ``steps`` and an empty or non-finite grid raise ValueError.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    grid = np.asarray(angles_deg, dtype=float)
    if grid.size == 0:
        raise ValueError("angle grid is empty")
    if not np.isfinite(grid).all():
        raise ValueError("angle grid must be finite")
    if not profiles:
        raise ValueError("no profile to scan")
    profs = [_scan_lattice(p, steps) for p in profiles]
    lattice = profs[0].lattice
    if any(p.lattice != lattice for p in profs):
        raise LatticeMismatchError("scanned profiles live on different lattices")
    rows = [lattice.index(x) for x in (x_probe, x_probe + 1)[:1 + cell_probe]]
    walks = np.zeros((2, len(profs), 2, lattice.size))  # component, profile, input, site
    start = lattice.index(1)
    walks[0, :, 0, start] = walks[1, :, 1, start] = 1.0
    for _ in advance(walks, np.array([[p.angles] * 2 for p in profs]), lattice.topology, steps):
        pass
    # [component, input] factor from the real gauge to lab amplitudes
    probe = walks[..., rows] * np.array([[1, -1j], [1j, 1]])[:, None, :, None]
    coins = waveplate("qwp", grid)[:, :, 0]
    curves = []
    for amps in probe.transpose(1, 3, 0, 2):  # per profile: [row, component, input]
        psi = amps.reshape(-1, 2)
        gram = psi.conj().T @ psi
        vals = np.einsum("ka,ab,kb->k", coins.conj(), gram, coins).real
        curves.append(ScanCurve(grid, vals, steps, x_probe,
                                sphere_max=float(np.linalg.eigvalsh(gram)[-1]),
                                cell_probe=cell_probe))
    return curves


def qwp_scan(profile: CoinProfile, steps: int, x_probe: int,
             angles_deg: Sequence[float]) -> ScanCurve:
    """Evolve QWP(theta)|H> inputs and record the probability at the probe site."""
    return scan([profile], steps, x_probe, angles_deg)[0]


def long_time_extrapolation(profile: CoinProfile, steps: int = 100, x_probe: int = 0,
                            angles_deg: Sequence[float] | None = None) -> ScanCurve:
    """Long-run scan of the intensity trapped on the interface bond.

    The walker alternates between the two site parities, so a single site is
    empty at every other step count; the probe therefore sums the bond pair
    (x_probe, x_probe + 1).  The walk starts at site 1, as every ``scan`` does.
    """
    if angles_deg is None:
        angles_deg = np.arange(0.0, 180.0, 1.0)
    return scan([profile], steps, x_probe, angles_deg, cell_probe=True)[0]
