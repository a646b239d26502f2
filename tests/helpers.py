"""Independent oracles shared by the test modules.

Everything here is built straight from the defining formulas (projector
sums, explicit kets) rather than from the package's vectorized code paths,
so agreement is a genuine cross-check.
"""

import ast

import numpy as np
from scipy.optimize import linear_sum_assignment

from susyqw import evolve

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def coin_2x2(phi):
    return np.array([[np.cos(phi), -1j * np.sin(phi)],
                     [-1j * np.sin(phi), np.cos(phi)]])


def dense_ring_oracle(angles):
    """2N x 2N one-step matrix assembled ket-by-ket from the definitions."""
    N = len(angles)
    dim = 2 * N

    def ket(x, c):
        v = np.zeros(dim, dtype=complex)
        v[2 * (x % N) + c] = 1.0
        return v

    cmat = np.zeros((dim, dim), dtype=complex)
    for x in range(N):
        block = coin_2x2(angles[x])
        for a in range(2):
            for b in range(2):
                cmat += block[a, b] * np.outer(ket(x, a), ket(x, b))
    smat = np.zeros((dim, dim), dtype=complex)
    for x in range(N):
        smat += np.outer(ket(x + 1, 0), ket(x, 0))   # |x+1><x| (x) |H><H|
        smat += np.outer(ket(x - 1, 1), ket(x, 1))   # |x-1><x| (x) |V><V|
    return smat @ cmat


def multiset_distance(a, b):
    """Max matched pairwise distance between two equal-size complex multisets (0 if empty)."""
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max(initial=0.0))


# The window solve of ``midgap_spectrum`` against the dense ``full_spectrum``.
# Both tolerances were fixed before either solve was compared.
EIGENVALUE_TOL = 1e-12
PROJECTOR_TOL = 1e-10
# Eigenvalues closer than GROUP_GAP form one group.  A backward error e of a
# solve moves a group's projector by about e / GROUP_GAP, and both solves
# stop at e <= 1e-14, within PROJECTOR_TOL.
GROUP_GAP = 1e-4


def projector_distance(a, b):
    """Largest entry of P_a - P_b, P the orthogonal projector onto the span of the columns."""
    qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    return float(np.abs(qa @ qa.conj().T - qb @ qb.conj().T).max(initial=0.0))


def eigenvalue_groups(values):
    """Index arrays of the groups of ``values``: runs linked by distances below GROUP_GAP."""
    linked = np.abs(values[:, None] - values[None, :]) < GROUP_GAP
    label = np.arange(values.size)
    while True:  # every member takes the smallest label among its links
        relabel = np.where(linked, label[None, :], values.size).min(axis=1, initial=values.size)
        if (relabel == label).all():
            return [np.flatnonzero(label == g) for g in np.unique(label)]
        label = relabel


def assert_same_eigenspaces(values, vectors, ref_values, ref_vectors):
    """Equal eigenvalues within EIGENVALUE_TOL and eigenspaces within PROJECTOR_TOL.

    Neither the column order nor the basis inside a group is compared: the
    eigenvalues as multisets, and each group of ``values`` by the projector
    onto its columns against the one onto the reference columns whose
    eigenvalues lie within GROUP_GAP of the group.
    """
    assert values.shape == ref_values.shape
    assert multiset_distance(values, ref_values) <= EIGENVALUE_TOL
    for group in eigenvalue_groups(values):
        near = np.abs(ref_values[:, None] - values[None, group]).min(axis=1) < GROUP_GAP
        assert near.sum() == group.size
        assert projector_distance(vectors[:, group], ref_vectors[:, near]) <= PROJECTOR_TOL


def assert_same_states(states, ref_states):
    """The same ``find_midgap`` states: count, centers and interface bonds exactly,
    eigenvalues within EIGENVALUE_TOL and each state's projector within PROJECTOR_TOL."""
    assert [(s.center, s.interface_cut) for s in states] == \
        [(s.center, s.interface_cut) for s in ref_states]
    for s, ref in zip(states, ref_states):
        assert abs(s.eigenvalue - ref.eigenvalue) <= EIGENVALUE_TOL
        assert projector_distance(s.amplitudes.reshape(-1, 1),
                                  ref.amplitudes.reshape(-1, 1)) <= PROJECTOR_TOL


def record_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's positional arguments."""
    calls, original = [], getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def trajectory(start, profile, steps):
    """``start`` and the state after each of ``steps`` steps, each from its own ``evolve``.

    Every walk runs the same step sequence from ``start``, so entry t has
    the bits that step t of one longer walk has.
    """
    return [start, *(evolve(start, profile, t) for t in range(1, steps + 1))]


def dotted_name(node):
    """``a.b.c`` of a chain of attribute accesses on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def ring_bloch_state(v, n_cells, m_momentum):
    """Lift a 4-vector Bloch eigenvector to the 2N ring amplitudes.

    Unit cell m holds sites (2m+1, 2m+2 mod N); sublattice 1 is the odd
    site.  The plane-wave phase is exp(i k m) with k = 2 pi m_momentum / M.
    """
    N = 2 * n_cells
    k = 2 * np.pi * m_momentum / n_cells
    amps = np.zeros((N, 2), dtype=complex)
    for m in range(n_cells):
        phase = np.exp(1j * k * m)
        amps[(2 * m + 1) % N] = phase * v[:2]
        amps[(2 * m + 2) % N] = phase * v[2:]
    return amps / np.linalg.norm(amps)


def bloch_oracle(k, phi1, phi2, primed=True):
    """Bloch matrix from the real-space step acting on a plane wave.

    Cell m holds the odd site 2m+1 (angle phi1) and the even site 2m+2
    (angle phi2), with amplitudes exp(i k m) (v[:2], v[2:]).  One step
    applies each site's coin, then moves H one site right and V one site
    left; reading cell 0 back gives column j for v = e_j: the lab-frame
    matrix.  The primed frame (default) conjugates it by the half-angle
    coins C(phi1/2) (+) C(phi2/2).  An array of k gives the stack of shape
    k.shape + (4, 4).
    """
    k = np.asarray(k, dtype=float)
    cols = []
    for j in range(4):
        v = np.eye(4)[j]
        coined = {}
        for m in (-1, 0, 1):
            for x, part in ((2 * m + 1, v[:2]), (2 * m + 2, v[2:])):
                coined[x] = np.exp(1j * k * m)[..., None] * (coin_2x2(phi1 if x % 2 else phi2) @ part)
        cols.append(np.stack([coined[0][..., 0], coined[2][..., 1],
                              coined[1][..., 0], coined[3][..., 1]], axis=-1))
    lab = np.stack(cols, axis=-1)
    if not primed:
        return lab
    half = np.zeros((4, 4), dtype=complex)
    half[:2, :2], half[2:, 2:] = coin_2x2(phi1 / 2), coin_2x2(phi2 / 2)
    return half @ lab @ half.conj().T


def primed_frame_rotation(angles):
    """2N x 2N block-diagonal C(phi_x / 2), site by site; U' = V U V^dagger."""
    N = len(angles)
    v = np.zeros((2 * N, 2 * N), dtype=complex)
    for x, phi in enumerate(angles):
        v[2 * x:2 * x + 2, 2 * x:2 * x + 2] = coin_2x2(phi / 2)
    return v


# (cos, sin) operator pairs of the torus angles on (sublattice x coin):
# sigma_{x,z} (1 + Sigma_z) for alpha, sigma_{x,z} (1 - Sigma_z) for beta,
# Sigma_{x,y} (1 - sigma_y) for gamma; shape (3, 2, 4, 4)
_ID4, _CELL_Z, _COIN_Y = np.eye(4), np.kron(SZ, ID2), np.kron(ID2, SY)
_TORUS_OPS = np.array([
    (np.kron(ID2, SX) @ (_ID4 + _CELL_Z), np.kron(ID2, SZ) @ (_ID4 + _CELL_Z)),
    (np.kron(ID2, SX) @ (_ID4 - _CELL_Z), np.kron(ID2, SZ) @ (_ID4 - _CELL_Z)),
    (np.kron(SX, ID2) @ (_ID4 - _COIN_Y), np.kron(SY, ID2) @ (_ID4 - _COIN_Y)),
])


def torus_oracle(v):
    """Torus angles and pair radii of a 4-vector or a stack (..., 4), each (..., 3).

    Each (cos, sin) pair is a pair of 4x4 operator expectations <v|O|v> of
    ``_TORUS_OPS``, taken of v as given (not normalized).
    """
    pairs = np.einsum("...i,pqij,...j->...pq", np.conj(v), _TORUS_OPS, v).real
    return np.arctan2(pairs[..., 1], pairs[..., 0]), np.hypot(pairs[..., 0], pairs[..., 1])


def stokes_oracle(h, v):
    """Unnormalized Stokes parameters (S0, S1, S2, S3) of one site's 2 amplitudes.

    The scalar formula on NumPy complex scalars, taken of (h, v) as given
    (pass primed-frame amplitudes for the primed Stokes vector).
    """
    return (abs(h) ** 2 + abs(v) ** 2, abs(h) ** 2 - abs(v) ** 2,
            2.0 * np.real(np.conj(h) * v), 2.0 * np.imag(np.conj(h) * v))
