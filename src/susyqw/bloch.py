"""Floquet-Bloch operators, band structure, symmetry checks and winding numbers.

The one-period bulk evolution restricted to wave number k is a 4x4 unitary
on (sublattice x coin).  In the site-local primed basis it anticommutes with
the sublattice Pauli CELL_Z (unitary supersymmetry) and is chiral under the
coin Pauli COIN_Y; together these pin protected gaps at quasi-energy 0, pi
(lambda = +-1) and pi/2, 3pi/2 (lambda = +-i).

While those gaps are open, band b stays in the quadrant
b pi/2 <= epsilon < (b + 1) pi/2 of the quasi-energy circle, so ordering the
four eigenvalues by quasi-energy at each k connects the bands; no overlap
matching is needed.

The one-step unitary is off-diagonal in the sublattice, u = [[0, u12],
[u21, 0]], so u^2 is the direct sum of the 2x2 SUSY partner walks u12 u21
and u21 u12.  Bands come from a batched 2x2 eigensolve of u12 u21 over all
k points at once, lifted to the eigenpairs of u (see ``_lift``, which the
ring spectrum in ``midgap`` shares); ``torus_angles`` accepts stacks of
eigenvectors as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhaseTransitionError, SymmetryViolationError
from .operators import (CELL_X, CELL_Y, CELL_Z, COIN_X, COIN_Y, COIN_Z, ID4,
                        SX, coin_matrix, shift_phase)
from .walk import Frame

_UNIT_CIRCLE_TOL = 1e-10
# overlap above which two partner eigenvectors count as skewed; eig's own
# overlaps stay below 1e-15 over the benchmark box, below 1e-13 at random angles
_SKEW_TOL = 1e-13


def band_condition_value(k, phi1: float, phi2: float):
    """Re[lambda^2] demanded by the dispersion relation at wave number k."""
    return np.cos(phi1) * np.cos(phi2) * np.cos(k) - np.sin(phi1) * np.sin(phi2)


def protected_gaps(phi1: float, phi2: float) -> tuple[float, float]:
    """Analytic quasi-energy gaps at lambda = +-1 and lambda = +-i."""
    amp = abs(np.cos(phi1) * np.cos(phi2))
    off = np.sin(phi1) * np.sin(phi2)
    c_max = np.clip(amp - off, -1.0, 1.0)
    c_min = np.clip(-amp - off, -1.0, 1.0)
    gap_real = float(np.arccos(c_max) / 2)
    gap_imag = float((np.pi - np.arccos(c_min)) / 2)
    return gap_real, gap_imag


def decay_length(phi1: float, phi2: float) -> float:
    """Analytic localization length xi of the midgap states at lambda = +-i.

    Setting lambda^2 = -1 in the band condition gives
    cos k = (sin phi1 sin phi2 - 1) / (cos phi1 cos phi2), whose modulus is
    at least 1: k is complex, and a midgap state decays from its interface
    as |psi|^2 ~ exp(-2 d / xi) over d sites, with
    xi = 2 / arccosh|(sin phi1 sin phi2 - 1) / (cos phi1 cos phi2)|.
    xi is 0 where cos phi1 cos phi2 = 0 (a coin angle of pi/2 confines the
    states to a few sites) and inf where sin phi1 = sin phi2 (the gap at
    +-i closes).
    """
    c = math.cos(phi1) * math.cos(phi2)
    if c == 0:
        return 0.0
    r = abs((math.sin(phi1) * math.sin(phi2) - 1) / c)
    return 2 / math.acosh(r) if r > 1 else math.inf


def quasi_energies(lams: np.ndarray) -> np.ndarray:
    """epsilon = -arg(lambda) mod 2pi."""
    return np.mod(-np.angle(lams), 2 * np.pi)


def _circle_distance(eps, target):
    return np.abs(np.mod(eps - target + np.pi, 2 * np.pi) - np.pi)


@dataclass(frozen=True, eq=False)
class BlochOperator:
    matrix: np.ndarray  # 4x4 complex
    k: float
    phi1: float
    phi2: float
    frame: Frame


def _bloch_blocks(ks, phi1: float, phi2: float,
                  frame: Frame) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal blocks u12(k), u21(k) of the one-step unitary.

    u(k) = [[0, u12], [u21, 0]]; each block has shape ``k.shape + (2, 2)``.
    """
    upper = SX @ shift_phase(-ks) @ SX
    lower = shift_phase(ks)
    if frame is Frame.LAB:
        return upper @ coin_matrix(phi2), lower @ coin_matrix(phi1)
    h1, h2 = coin_matrix(phi1 / 2), coin_matrix(phi2 / 2)
    return h1 @ upper @ h2, h2 @ lower @ h1


def bloch_operator(k: float, phi1: float, phi2: float,
                   frame: Frame = Frame.LAB) -> BlochOperator:
    """4x4 one-step unitary at wave number k.

    Lab frame:     [[0, sx f(-k) sx C(phi2)], [f(k) C(phi1), 0]]
    Primed frame:  half-angle coins attached on both sides of each block.
    """
    u = np.zeros((4, 4), dtype=complex)
    u[:2, 2:], u[2:, :2] = _bloch_blocks(float(k), phi1, phi2, frame)
    return BlochOperator(u, float(k), float(phi1), float(phi2), frame)


def to_primed(op: BlochOperator) -> BlochOperator:
    """Conjugate a lab-frame Bloch operator into the primed basis."""
    if op.frame is Frame.PRIMED:
        return op
    v = np.zeros((4, 4), dtype=complex)
    v[:2, :2] = coin_matrix(op.phi1 / 2)
    v[2:, 2:] = coin_matrix(op.phi2 / 2)
    return BlochOperator(v @ op.matrix @ v.conj().T, op.k, op.phi1, op.phi2, Frame.PRIMED)


@dataclass(frozen=True)
class SymmetryReport:
    chiral_residual: float
    susy_residual: float


def check_symmetries(op: BlochOperator) -> SymmetryReport:
    """Operator-norm residuals of the chiral and supersymmetry relations.

    Both vanish (< 1e-12) in the primed frame; a lab-frame operator is
    transformed first, so the report always refers to the primed algebra.
    """
    u = to_primed(op).matrix
    chiral = np.linalg.norm(COIN_Y @ u @ COIN_Y - u.conj().T, 2)
    susy = np.linalg.norm(CELL_Z @ u @ CELL_Z + u, 2)
    return SymmetryReport(float(chiral), float(susy))


def susy_partners(k: float, phi1: float, phi2: float,
                  frame: Frame = Frame.LAB) -> tuple[np.ndarray, np.ndarray]:
    """The two 2x2 partner walks whose direct sum is u(k)^2."""
    u12, u21 = _bloch_blocks(float(k), phi1, phi2, frame)
    return u12 @ u21, u21 @ u12


def _lift(mu: np.ndarray, vec: np.ndarray, hop_vec: np.ndarray,
          psi_vec: np.ndarray, psi_hop: np.ndarray) -> np.ndarray:
    """Eigenpairs of U = [[0, X], [Y, 0]] from the eigenpairs (mu, v) of X Y.

    Each (mu, v) gives lambda = +-sqrt(mu / |mu|) and
    psi = (v, Y v / lambda) / sqrt(2).  ``vec`` (..., d, m) holds the v as
    columns, ``hop_vec`` the Y v; ``psi_vec`` and ``psi_hop`` (..., d, 2, m)
    are the two blocks of the output eigenvectors, written here, with the
    branch axis -2 ordered +lambda, -lambda.  Returns the eigenvalues
    (..., 2m) in the same column order.  A |mu| off 1 by more than
    _UNIT_CIRCLE_TOL, or NaN, raises LinAlgError.
    """
    mod = np.abs(mu)
    off = ~(np.abs(mod - 1.0) <= _UNIT_CIRCLE_TOL)
    if off.any():
        raise np.linalg.LinAlgError(
            f"eigenvalues off the unit circle (|mu| = {mod[off].flat[0]!r})")
    lam = np.sqrt(mu / mod)
    psi_vec[...] = vec[..., None, :] * np.sqrt(0.5)
    psi_hop[..., 0, :] = hop_vec * (np.sqrt(0.5) / lam[..., None, :])
    psi_hop[..., 1, :] = -psi_hop[..., 0, :]
    return np.concatenate([lam, -lam], axis=-1)


def _gaps(eps: np.ndarray) -> tuple[float, float]:
    """Least quasi-energy distances of a grid to lambda = +-1 and to lambda = +-i."""
    def gap(*targets):
        return float(min(_circle_distance(eps, t).min() for t in targets))
    return gap(0.0, np.pi), gap(np.pi / 2, 3 * np.pi / 2)


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Bands over a sorted k grid in quasi-energy order, with eigenvectors.

    Column b holds the b-th smallest quasi-energy at every k.  With both
    protected gaps open that is band b in the quadrant [b pi/2, (b+1) pi/2);
    where a gap closes, touching bands keep this order instead of following
    the crossing.
    """

    k_grid: np.ndarray          # (nk,)
    eigenvalues: np.ndarray     # (nk, 4), unit circle, quasi-energy order
    quasienergies: np.ndarray   # (nk, 4)
    eigenvectors: np.ndarray    # (nk, 4, 4), column b is band b
    phi1: float
    phi2: float
    frame: Frame

    def gap_at_real(self) -> float:
        """Minimal quasi-energy distance to lambda = +-1 over the grid."""
        return _gaps(self.quasienergies)[0]

    def gap_at_imag(self) -> float:
        """Minimal quasi-energy distance to lambda = +-i over the grid."""
        return _gaps(self.quasienergies)[1]


def band_structure(phi1: float, phi2: float,
                   k_grid: np.ndarray | None = None,
                   resolution: int = 512,
                   frame: Frame = Frame.PRIMED) -> BandStructure:
    """Diagonalize the Bloch operator over a k grid through its SUSY partner walk.

    One batched ``eig`` of the 2x2 partner u12(k) u21(k) gives (mu, v) at
    every k; each pair lifts to lambda = +-sqrt(mu / |mu|) and
    psi = (v, u21 v / lambda) / sqrt(2), with |mu| - 1 asserted below 1e-10
    (see ``_lift``).  Where u12 u21 has a double eigenvalue (a gap closing)
    and ``eig`` returns two skewed vectors for it, the second is
    orthogonalized against the first, so the eigenvectors stay orthonormal.
    The eigenvalues come from the assembled matrices, not from
    ``band_condition_value``, which stays an independent check.  The four
    eigenpairs are sorted by ascending quasi-energy at every k, which
    keeps each band in its own quadrant while the protected gaps are open;
    where a gap closes, touching bands keep that order rather than following
    the crossing.  Each eigenvector has its largest component made real
    positive, then a phase carried along k that makes the overlaps of
    neighbouring k points real positive.
    """
    if k_grid is None:
        k_grid = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    ks = np.asarray(k_grid, dtype=float)
    if ks.size == 0:
        raise ValueError("k grid is empty")
    if np.any(np.diff(ks) < 0):
        raise ValueError("k grid must be sorted")

    u12, u21 = _bloch_blocks(ks, phi1, phi2, frame)
    mu, v = np.linalg.eig(u12 @ u21)
    # at a gap closing the partner has a double eigenvalue, and eig may
    # return two skewed vectors for it: orthogonalize the second
    overlap = np.einsum("ki,ki->k", v[..., 0].conj(), v[..., 1])
    skew = np.abs(overlap) > _SKEW_TOL
    if skew.any():
        w = v[skew, :, 1] - overlap[skew, None] * v[skew, :, 0]
        v[skew, :, 1] = w / np.linalg.norm(w, axis=-1, keepdims=True)
    # axes (k, sublattice, coin, branch, eigenpair of u12 u21)
    vecs = np.empty((ks.size, 2, 2, 2, 2), dtype=complex)
    lams = _lift(mu, v, u21 @ v, vecs[:, 0], vecs[:, 1])
    vecs = vecs.reshape(ks.size, 4, 4)
    eps = quasi_energies(lams)
    order = np.argsort(eps, axis=1)
    lams, eps = np.take_along_axis(lams, order, 1), np.take_along_axis(eps, order, 1)
    vecs = np.take_along_axis(vecs, order[:, None, :], 2)

    top = np.take_along_axis(vecs, np.abs(vecs).argmax(axis=1)[:, None, :], 1)
    vecs /= top / np.abs(top)
    overlaps = np.einsum("kab,kab->kb", vecs[:-1].conj(), vecs[1:])
    vecs[1:] *= np.exp(-1j * np.cumsum(np.angle(overlaps), axis=0))[:, None, :]
    return BandStructure(ks, lams, eps, vecs, float(phi1), float(phi2), frame)


def quadruple_closure_distance(lams: np.ndarray) -> float:
    """Set distance between {lambda_j} and its image under conjugation and negation."""
    lams = np.asarray(lams)
    worst = 0.0
    for image in (lams.conj(), -lams, -lams.conj()):
        d = np.abs(lams[:, None] - image[None, :]).min(axis=0).max()
        worst = max(worst, float(d))
    return worst


# (cos, sin) operator pairs of alpha, beta and gamma, shape (3, 2, 4, 4)
_PAIR_OPS = np.array([
    (COIN_X @ (ID4 + CELL_Z), COIN_Z @ (ID4 + CELL_Z)),
    (COIN_X @ (ID4 - CELL_Z), COIN_Z @ (ID4 - CELL_Z)),
    (CELL_X @ (ID4 - COIN_Y), CELL_Y @ (ID4 - COIN_Y)),
])

_RADIUS_TOL = 1e-6


def torus_angles(vec: np.ndarray, radius_tol: float = _RADIUS_TOL
                 ) -> tuple[float, float, float] | np.ndarray:
    """The three torus angles (alpha, beta, gamma) of a bulk eigenvector.

    Each angle comes from a (cos, sin) pair of operator expectations that
    lies on the unit circle for bulk eigenstates away from lambda = +-1, +-i;
    a pair radius off 1 beyond ``radius_tol``, or a zero or non-finite
    vector, raises SymmetryViolationError.  A single 4-vector gives a
    tuple of floats; a stack of shape (..., 4) gives an array (..., 3).
    """
    v = np.asarray(vec, dtype=complex)
    if v.ndim == 0 or v.shape[-1] != 4:
        raise ValueError("expected a 4-component Bloch eigenvector")
    if not np.isfinite(v).all():
        raise SymmetryViolationError("state has non-finite components")
    nrm = np.linalg.norm(v, axis=-1, keepdims=True)
    if not (nrm > 0).all():
        raise SymmetryViolationError("state has zero norm")
    v = v / np.where(np.abs(nrm - 1.0) > 1e-8, nrm, 1.0)
    pairs = np.einsum("...i,pqij,...j->...pq", v.conj(), _PAIR_OPS, v).real
    r = np.hypot(pairs[..., 0], pairs[..., 1])
    bad = ~(np.abs(r - 1.0) <= radius_tol)
    if bad.any():
        raise SymmetryViolationError(
            f"state violates bulk symmetry constraints (pair radius {r[bad].flat[0]:.6f})")
    angles = np.arctan2(pairs[..., 1] / r, pairs[..., 0] / r)
    return tuple(angles.tolist()) if v.ndim == 1 else angles


@dataclass(frozen=True)
class WindingReport:
    """Integer torus-angle windings per band plus gap sizes and residuals."""

    phi1: float
    phi2: float
    resolution: int
    windings: tuple[tuple[int, int, int], ...]   # per band: (w_alpha, w_beta, w_gamma)
    residuals: tuple[float, ...]                 # per band, max |accumulated/2pi - integer|
    gap_at_real: float
    gap_at_imag: float


def winding_numbers(phi1: float, phi2: float, resolution: int = 512) -> WindingReport:
    """Accumulate the torus angles along a closed k loop and round to integers."""
    if resolution < 256:
        raise ValueError("winding needs resolution >= 256")
    # the default band_structure grid plus k = 2pi, which closes the loop
    loop = band_structure(phi1, phi2, k_grid=np.linspace(0.0, 2 * np.pi, resolution + 1),
                          frame=Frame.PRIMED)
    gap_real, gap_imag = _gaps(loop.quasienergies[:-1])
    # the analytic gaps catch a closing that falls between grid points
    if min(gap_real, gap_imag, *protected_gaps(phi1, phi2)) < 1e-6:
        raise PhaseTransitionError("cannot compute winding at a phase transition")

    angles = torus_angles(np.swapaxes(loop.eigenvectors, 1, 2))   # (k, band, 3)
    deltas = np.mod(np.diff(angles, axis=0) + np.pi, 2 * np.pi) - np.pi
    total = deltas.sum(axis=0) / (2 * np.pi)
    w = np.rint(total)
    return WindingReport(float(phi1), float(phi2), resolution,
                         tuple(tuple(int(x) for x in row) for row in w),
                         tuple(np.abs(total - w).max(axis=1).tolist()), gap_real, gap_imag)
