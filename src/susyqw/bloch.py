"""Floquet-Bloch operators, band structure, symmetry checks and winding numbers.

The one-period bulk evolution restricted to wave number k is a 4x4 unitary
on (sublattice x coin), built from the coins ``walk.coin_matrix``; sublattice
1 is the odd sites, which carry phi1 in the bulk pattern.  In the site-local
primed basis it anticommutes with the sublattice Pauli CELL_Z (unitary
supersymmetry) and is chiral under the coin Pauli COIN_Y, both defined here
for ``check_symmetries``; together these pin protected gaps at quasi-energy
0, pi (lambda = +-1) and pi/2, 3pi/2 (lambda = +-i).

While those gaps are open, band b stays in the quadrant
b pi/2 <= epsilon < (b + 1) pi/2 of the quasi-energy circle, so ordering the
four eigenvalues by quasi-energy at each k connects the bands; no overlap
matching is needed.  Band b + 2 is then the -lambda partner (a, -b) of band
b = (a, b), which has the same torus angles alpha and beta and a gamma turned
by pi (see ``torus_angles``), so ``winding_numbers`` evaluates bands 0 and 1.

The one-step unitary is off-diagonal in the sublattice, u = [[0, u12],
[u21, 0]], so u^2 is the direct sum of the 2x2 SUSY partner walks u12 u21
and u21 u12.  The partner m = u12 u21 is unitary with determinant 1, so
its eigenvalues are the roots of a quadratic in its trace, and its
eigenvectors are a null vector of m - mu and that vector's orthogonal
complement: bands come from this closed form over all k points at once
(``_partner_eigvals`` and ``_partner_eigvecs``), with no LAPACK call, lifted
to the eigenvalues lambda = +-sqrt(mu / |mu|) of u (``_lift_values``).  The
``bands`` command reads eigenvalues only (``_band_energies``); ``winding``
reads eigenpairs, lifted to the eigenvectors as well (``band_structure``
and ``_lift``, which the ring spectrum in ``midgap`` shares).  Both take
their eigenvalues from the same ``_partner_eigvals``, so both paths print
the same bands bit for bit.

Swapping the angles moves the unit cell by one site.  In the primed frame
the shift phases obey d12 = e^{-ik} d21, so the swapped walk is
u'(k) = D X u(k) X D^dagger, with X the sublattice swap and
D = diag(1, e^{ik}): the same bands, with alpha and beta traded and gamma
turned into k - gamma (see ``WindingReport.swapped``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PhaseTransitionError, SymmetryViolationError
from .walk import Frame, coin_matrix, _read_only

# sigma_y on the polarization of each sublattice; Sigma_z = +1 on sublattice 1
COIN_Y = np.kron(np.eye(2), [[0, -1j], [1j, 0]])
CELL_Z = np.diag([1.0, 1.0, -1.0, -1.0])

_UNIT_CIRCLE_TOL = 1e-10


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
    xi tends to 0 as cos phi1 cos phi2 -> 0 (a coin angle of pi/2 confines
    the states to a few sites; no double makes the product exactly 0) and is
    inf where sin phi1 = sin phi2 (the gap at +-i closes).
    """
    c = math.cos(phi1) * math.cos(phi2)
    r = abs((math.sin(phi1) * math.sin(phi2) - 1) / c)
    return 2 / math.acosh(r) if r > 1 else math.inf


def quasi_energies(lams: np.ndarray) -> np.ndarray:
    """epsilon = -arg(lambda) mod 2pi."""
    return np.mod(-np.angle(lams), 2 * np.pi)


def _circle_distance(eps, target):
    return np.abs(np.mod(eps - target + np.pi, 2 * np.pi) - np.pi)


@dataclass(frozen=True, eq=False)
class BlochOperator:
    """The 4x4 one-step unitary at wave number k; ``matrix`` is a read-only complex copy."""

    matrix: np.ndarray
    k: float
    phi1: float
    phi2: float
    frame: Frame

    def __post_init__(self):
        object.__setattr__(self, "matrix", _read_only(np.array(self.matrix, dtype=complex)))


def _bloch_blocks(ks, phi1: float, phi2: float,
                  frame: Frame) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal blocks u12(k), u21(k) of the one-step unitary.

    u(k) = [[0, u12], [u21, 0]]; each block has shape ``k.shape + (2, 2)``.
    Within a unit cell the shift only multiplies one polarization by a phase:
    u12 = diag(e^{-ik}, 1) C(phi2) and u21 = diag(1, e^{ik}) C(phi1) in the
    lab frame, with the half-angle coins C(phi1 / 2) and C(phi2 / 2) around
    each diagonal in the primed frame.  Split by polarization, the blocks are
    u12 = e^{-ik} P + Q and u21 = R + e^{ik} S with constant coin products
    P, Q, R and S, broadcast over the k points.
    """
    phase = np.exp(1j * np.asarray(ks, dtype=float))[..., None, None]
    if frame is Frame.LAB:
        (l12, r12), (l21, r21) = (np.eye(2), coin_matrix(phi2)), (np.eye(2), coin_matrix(phi1))
    else:
        h1, h2 = coin_matrix(phi1 / 2), coin_matrix(phi2 / 2)
        (l12, r12), (l21, r21) = (h1, h2), (h2, h1)
    p, q = np.outer(l12[:, 0], r12[0]), np.outer(l12[:, 1], r12[1])
    r, s = np.outer(l21[:, 0], r21[0]), np.outer(l21[:, 1], r21[1])
    return phase.conj() * p + q, r + phase * s


def _matmul2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for stacks of 2x2 matrices, written out entry by entry.

    Eight broadcast products cost less than a batched ``@``, which loops
    over the stack one 2x2 product at a time.
    """
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    for i in range(2):
        for j in range(2):
            out[..., i, j] = x[..., i, 0] * y[..., 0, j] + x[..., i, 1] * y[..., 1, j]
    return out


def bloch_operator(k: float, phi1: float, phi2: float,
                   frame: Frame = Frame.LAB) -> BlochOperator:
    """4x4 one-step unitary at wave number k.

    Lab frame:     [[0, diag(e^{-ik}, 1) C(phi2)], [diag(1, e^{ik}) C(phi1), 0]]
    Primed frame:  half-angle coins attached on both sides of each block.
    """
    u = np.zeros((4, 4), dtype=complex)
    u[:2, 2:], u[2:, :2] = _bloch_blocks(float(k), phi1, phi2, frame)
    return BlochOperator(u, float(k), float(phi1), float(phi2), frame)


def to_primed(op: BlochOperator) -> BlochOperator:
    """The same Bloch operator in the primed basis, built by ``bloch_operator``."""
    if op.frame is Frame.PRIMED:
        return op
    return bloch_operator(op.k, op.phi1, op.phi2, Frame.PRIMED)


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
    return _matmul2(u12, u21), _matmul2(u21, u12)


def _partner_eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues (..., 2) of the partners m (..., 2, 2) in closed form.

    m = [[a, b], [c, d]] has mu = (a + d) / 2 +- sqrt(((a - d) / 2)^2 + bc),
    the + root first.  On a normal m the entries of m - (a + d) / 2 are as
    small as the eigenvalue split, so the root is accurate to rounding in
    absolute terms even where the two eigenvalues meet.
    """
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    half, root = (a + d) / 2, np.sqrt(((a - d) / 2) ** 2 + b * c)
    return np.stack([half + root, half - root], axis=-1)


def _partner_eigvecs(m: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors (..., 2, 2) of the unitary partners m, as columns.

    Column 0 belongs to mu[..., 0]: the null vector of whichever row of
    m - mu0 has the larger norm, normalized, or e1 where both rows are zero
    (m = mu0, any vector will do).  m is normal, so the eigenvector of mu1 is
    the orthogonal complement (-conj v[1], conj v[0]) of v, column 1.
    """
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    mu0 = mu[..., 0]
    # (m - mu0) v = 0: (b, mu0 - a) solves its row 0, (mu0 - d, c) its row 1
    rows = ((b, mu0 - a), (mu0 - d, c))
    n0, n1 = (np.hypot(np.abs(x), np.abs(y)) for x, y in rows)
    x, y = (np.where(n0 >= n1, *pair) for pair in zip(*rows))
    norm = np.maximum(n0, n1)
    parts = np.stack([np.where(norm == 0, 1.0, x), y], axis=-1).view(float)
    # scaled by a power of two first, which is exact: the norm of a subnormal
    # row is inexact, and a complex division by it overflows
    parts = np.ldexp(parts, -np.frexp(norm)[1][..., None])
    parts /= np.sqrt(np.square(parts).sum(axis=-1, keepdims=True))
    vec = np.empty(m.shape, dtype=complex)
    vec[..., 0] = parts.view(complex)
    vec[..., 0, 1], vec[..., 1, 1] = -vec[..., 1, 0].conj(), vec[..., 0, 0].conj()
    return vec


def _lift_values(mu: np.ndarray) -> np.ndarray:
    """Eigenvalues (..., 2m) of U = [[0, X], [Y, 0]] from the eigenvalues (..., m) of X Y.

    Each mu gives lambda = +-sqrt(mu / |mu|); the +lambda come first, then
    the -lambda in the same order.  A |mu| off 1 by more than
    _UNIT_CIRCLE_TOL, or NaN, raises LinAlgError.
    """
    mod = np.abs(mu)
    off = ~(np.abs(mod - 1.0) <= _UNIT_CIRCLE_TOL)
    if off.any():
        raise np.linalg.LinAlgError(
            f"eigenvalues off the unit circle (|mu| = {mod[off].flat[0]!r})")
    lam = np.sqrt(mu / mod)
    return np.concatenate([lam, -lam], axis=-1)


def _lift(mu: np.ndarray, vec: np.ndarray, hop_vec: np.ndarray,
          psi_vec: np.ndarray, psi_hop: np.ndarray) -> np.ndarray:
    """Eigenpairs of U = [[0, X], [Y, 0]] from the eigenpairs (mu, v) of X Y.

    Each (mu, v) gives lambda = +-sqrt(mu / |mu|) (``_lift_values``) and
    psi = (v, Y v / lambda) / sqrt(2).  ``vec`` (..., d, m) holds the v as
    columns, ``hop_vec`` the Y v; ``psi_vec`` and ``psi_hop`` (..., d, 2, m)
    are the two blocks of the output eigenvectors, written here, with the
    branch axis -2 ordered +lambda, -lambda.  Returns the eigenvalues
    (..., 2m) in the same column order.
    """
    lams = _lift_values(mu)
    psi_vec[...] = vec[..., None, :] * np.sqrt(0.5)
    psi_hop[..., 0, :] = hop_vec * (np.sqrt(0.5) / lams[..., None, :mu.shape[-1]])
    psi_hop[..., 1, :] = -psi_hop[..., 0, :]
    return lams


def _gap(eps: np.ndarray, target: float) -> float:
    """Least quasi-energy distance of a grid to target and to target + pi."""
    return float(min(_circle_distance(eps, t).min() for t in (target, target + np.pi)))


@dataclass(frozen=True, eq=False)
class _BandEnergies:
    """Quasi-energies over a sorted k grid, in ascending order at every k.

    Column b holds the b-th smallest quasi-energy at every k.  With both
    protected gaps open that is band b in the quadrant [b pi/2, (b+1) pi/2);
    where a gap closes, touching bands keep this order instead of following
    the crossing.  ``band_structure`` and ``_band_energies`` hand out
    read-only arrays.
    """

    k_grid: np.ndarray          # (nk,)
    eigenvalues: np.ndarray     # (nk, 4), unit circle, quasi-energy order
    quasienergies: np.ndarray   # (nk, 4)

    def gap_at_real(self) -> float:
        """Minimal quasi-energy distance to lambda = +-1 over the grid."""
        return _gap(self.quasienergies, 0.0)

    def gap_at_imag(self) -> float:
        """Minimal quasi-energy distance to lambda = +-i over the grid."""
        return _gap(self.quasienergies, np.pi / 2)


@dataclass(frozen=True, eq=False)
class BandStructure(_BandEnergies):
    """Bands over a sorted k grid in quasi-energy order, with eigenvectors.

    The eigenpairs that ``winding`` reads; the ``bands`` command needs only
    the eigenvalues, and takes them from ``_band_energies``, which gives the
    same k grid, eigenvalues and quasi-energies bit for bit.
    """

    eigenvectors: np.ndarray    # (nk, 4, 4), column b is band b


def _k_points(k_grid: np.ndarray | None, resolution: int) -> np.ndarray:
    """The k grid as floats: a copy of the given one, or ``resolution`` points on [0, 2pi)."""
    if k_grid is None:
        k_grid = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
        if k_grid.size < resolution:  # near 2**63 points linspace returns an empty array
            raise MemoryError(f"cannot allocate a k grid of {resolution} points")
    ks = np.array(k_grid, dtype=float)
    if ks.size == 0:
        raise ValueError("k grid is empty")
    if not np.isfinite(ks).all():
        raise ValueError("k grid must be finite")
    if np.any(np.diff(ks) < 0):
        raise ValueError("k grid must be sorted")
    return ks


def _by_quasienergy(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort the eigenvalues (nk, 4) by ascending quasi-energy at every k.

    Returns the order (nk, 4), the sorted eigenvalues and their quasi-energies.
    """
    eps = quasi_energies(lams)
    order = np.argsort(eps, axis=1)
    return order, np.take_along_axis(lams, order, 1), np.take_along_axis(eps, order, 1)


def _band_energies(phi1: float, phi2: float,
                   k_grid: np.ndarray | None = None,
                   resolution: int = 512,
                   frame: Frame = Frame.PRIMED) -> _BandEnergies:
    """The eigenvalues of ``band_structure`` without its eigenvectors.

    The closed-form eigenvalues of the partner u12(k) u21(k)
    (``_partner_eigvals``), lifted and sorted as in ``band_structure``: the
    same bits, with no eigenvector work.
    """
    ks = _k_points(k_grid, resolution)
    mu = _partner_eigvals(_matmul2(*_bloch_blocks(ks, phi1, phi2, frame)))
    _, lams, eps = _by_quasienergy(_lift_values(mu))
    return _BandEnergies(*map(_read_only, (ks, lams, eps)))


def band_structure(phi1: float, phi2: float,
                   k_grid: np.ndarray | None = None,
                   resolution: int = 512,
                   frame: Frame = Frame.PRIMED) -> BandStructure:
    """Diagonalize the Bloch operator over a k grid through its SUSY partner walk.

    The 2x2 partner m = u12(k) u21(k) is solved in closed form at every k
    (``_partner_eigvals`` and ``_partner_eigvecs``), with no LAPACK call;
    each pair (mu, v) lifts to lambda = +-sqrt(mu / |mu|) and
    psi = (v, u21 v / lambda) / sqrt(2), with |mu| - 1 asserted below 1e-10
    (see ``_lift``).  The two eigenvectors of m are orthogonal by
    construction, so the eigenvectors stay orthonormal where u12 u21 has a
    double eigenvalue (a gap closing).  The eigenvalues come from the
    assembled matrices, not from ``band_condition_value``, which stays an
    independent check.  The four eigenpairs are sorted by ascending
    quasi-energy at every k, which keeps each band in its own quadrant while
    the protected gaps are open; where a gap closes, touching bands keep that
    order rather than following the crossing.  Each eigenvector has its
    largest component made real positive, then a phase carried along k that
    makes the overlaps of neighbouring k points real positive.  ``winding``
    reads these eigenpairs; ``bands`` reads the same eigenvalues from
    ``_band_energies``, which skips the eigenvectors.  The k grid must be
    sorted and finite.
    """
    ks = _k_points(k_grid, resolution)
    u12, u21 = _bloch_blocks(ks, phi1, phi2, frame)
    m = _matmul2(u12, u21)
    mu = _partner_eigvals(m)
    v = _partner_eigvecs(m, mu)
    # axes (k, sublattice, coin, branch, eigenpair of u12 u21)
    vecs = np.empty((ks.size, 2, 2, 2, 2), dtype=complex)
    order, lams, eps = _by_quasienergy(_lift(mu, v, _matmul2(u21, v), vecs[:, 0], vecs[:, 1]))
    vecs = np.take_along_axis(vecs.reshape(ks.size, 4, 4), order[:, None, :], 2)

    top = np.take_along_axis(vecs, np.abs(vecs).argmax(axis=1)[:, None, :], 1)
    vecs /= top / np.abs(top)
    overlaps = np.einsum("kab,kab->kb", vecs[:-1].conj(), vecs[1:])
    vecs[1:] *= np.exp(-1j * np.cumsum(np.angle(overlaps), axis=0))[:, None, :]
    return BandStructure(*map(_read_only, (ks, lams, eps, vecs)))


def quadruple_closure_distance(lams: np.ndarray) -> float:
    """Set distance between {lambda_j} and its image under conjugation and negation."""
    lams = np.asarray(lams)
    worst = 0.0
    for image in (lams.conj(), -lams, -lams.conj()):
        d = np.abs(lams[:, None] - image[None, :]).min(axis=0).max()
        worst = max(worst, float(d))
    return worst


def torus_angles(vec: np.ndarray, radius_tol: float = 1e-6
                 ) -> tuple[float, float, float] | np.ndarray:
    """The three torus angles (alpha, beta, gamma) of a bulk eigenvector.

    With psi = (a, b) split by sublattice, the angles are the arguments of
    the (cos, sin) pairs 2 (<a|sigma_x|a>, <a|sigma_z|a>), the same for b,
    and 2 (Re g, Im g) with g = <a|(1 - sigma_y)|b>; the -lambda partner
    (a, -b) shares alpha and beta and turns gamma by pi.  Each pair lies on
    the unit circle for bulk eigenstates away from lambda = +-1, +-i; a pair
    radius off 1 beyond ``radius_tol``, or a zero or non-finite vector,
    raises SymmetryViolationError.  A single 4-vector gives a tuple of
    floats; a stack of shape (..., 4) gives an array (..., 3).
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
    # h, w: the H and V amplitudes of a and b, as real parts (complex products
    # round differently for one vector and for a stack)
    hr, hi, wr, wi = v.real[..., 0::2], v.imag[..., 0::2], v.real[..., 1::2], v.imag[..., 1::2]
    qr, qi = hr - wi, hi + wr    # q = h + i w, so (1 - sigma_y) b = (q_b, -i q_b)
    gr = qr[..., :1] * qr[..., 1:] + qi[..., :1] * qi[..., 1:]    # g = conj(q_a) q_b
    gi = qr[..., :1] * qi[..., 1:] - qi[..., :1] * qr[..., 1:]
    cos = 2 * np.concatenate([2 * (hr * wr + hi * wi), gr], axis=-1)
    sin = 2 * np.concatenate([hr * hr + hi * hi - wr * wr - wi * wi, gi], axis=-1)
    r = np.hypot(cos, sin)
    bad = ~(np.abs(r - 1.0) <= radius_tol)
    if bad.any():
        raise SymmetryViolationError(
            f"state violates bulk symmetry constraints (pair radius {r[bad].flat[0]:.6f})")
    angles = np.arctan2(sin / r, cos / r)
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

    def swapped(self) -> WindingReport:
        """The report of ``winding_numbers(phi2, phi1)``, without a second band solve.

        The swapped blocks are u12' = e^{-ik} u21 and u21' = e^{ik} u12, so
        each eigenvector psi becomes (psi2, e^{ik} psi1) with the same
        eigenvalue: the windings turn into (w_beta, w_alpha, 1 - w_gamma),
        and band order, residuals and gaps stay.
        """
        return replace(self, phi1=self.phi2, phi2=self.phi1,
                       windings=tuple((b, a, 1 - g) for a, b, g in self.windings))


def winding_numbers(phi1: float, phi2: float, resolution: int = 512) -> WindingReport:
    """Accumulate the torus angles along a closed k loop and round to integers."""
    if resolution < 256:
        raise ValueError("winding needs resolution >= 256")
    # the default band_structure grid plus k = 2pi, which closes the loop
    ks = np.append(_k_points(None, resolution), 2 * np.pi)
    loop = band_structure(phi1, phi2, k_grid=ks, frame=Frame.PRIMED)
    gap_real, gap_imag = (_gap(loop.quasienergies[:-1], t) for t in (0.0, np.pi / 2))
    # the analytic gaps catch a closing that falls between grid points
    if min(gap_real, gap_imag, *protected_gaps(phi1, phi2)) < 1e-6:
        raise PhaseTransitionError("cannot compute winding at a phase transition")

    # band b + 2 is the -lambda partner of band b, with the same windings and residuals
    angles = torus_angles(np.swapaxes(loop.eigenvectors[:, :, :2], 1, 2))   # (k, 2, 3)
    deltas = np.mod(np.diff(angles, axis=0) + np.pi, 2 * np.pi) - np.pi
    total = deltas.sum(axis=0) / (2 * np.pi)
    w = np.rint(total)
    return WindingReport(float(phi1), float(phi2), resolution,
                         tuple(tuple(int(x) for x in row) for row in w) * 2,
                         tuple(np.abs(total - w).max(axis=1).tolist()) * 2, gap_real, gap_imag)
