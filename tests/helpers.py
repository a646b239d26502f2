"""Independent oracles shared by the test modules.

Everything here is built straight from the defining formulas (projector
sums, explicit kets) rather than from the package's vectorized code paths,
so agreement is a genuine cross-check.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

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
    """Max matched pairwise distance between two equal-size complex multisets."""
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


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
