"""Finite interface rings, midgap-state extraction and anomaly measurements.

A ring holding two pattern interchanges of different kinds is the finite
proxy for a single semi-infinite interface: it binds two states per
protected eigenvalue lambda = +-i, one per interchange bond.  Two
interchanges of the same kind hybridize and their states split off +-i
(``ring_with_interfaces`` says for which ring sizes).  The anomaly
⟨Sigma_z sigma_y⟩ of a localized state is measured in the primed frame with
the unit-cell registration anchored to that state's own interface (the
registration under which the bulk pattern to the right of the interface
carries the first coin angle on sublattice 1).  Under a single global
registration the two interfaces of a ring necessarily report opposite
signs: the anomaly operator is traceless on each of the +-i eigenspaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from .bloch import _lift, protected_gaps
from .errors import ProfileError, UnoccupiedSiteError
from .walk import CoinProfile, Frame, Lattice, Topology, WalkerState, \
    make_coin_profile, _coin, _coin_factors, _read_only, _rotate_half

_PROJECTION_TOL = 1e-10
_CENTER_RTOL = 1e-9
# Eigenvalue groups of the odd parity block M (see _invariant_groups).
_GROUP_GAP = 1e-9
_MERGE_TOL = 1e-12
_MERGE_GAP = 1e-2
# The window solve of the chiral sectors (see _sector_windows).
_SHIFT = 1e-11         # sigma = -1 - _SHIFT lies below every Re mu
_RATE = 0.1            # certified contraction of one shift-invert sweep
_RESIDUAL = 1e-14      # ||S X - X (X^T S X)|| that ends the iteration
_TINY_PIVOT = 1e-300   # stands in for a zero pivot of an inertia count
_GOLDEN = (5 ** 0.5 - 1) / 2  # step of the Weyl sequence that starts the iteration


def ring_with_interfaces(N: int, phi1: float, phi2: float) -> CoinProfile:
    """Ring of N sites with two antipodal pattern interchanges.

    The first interchange sits on the bond (0, 1) like the standard segment
    interface; the second sits half a ring away on (N/2, N/2 + 1).  For
    N = 0 (mod 4) the bonds carry (phi1, phi1) and (phi2, phi2): two states
    per lambda = +-i, pinned there.  For N = 2 (mod 4) both carry (phi1, phi1):
    the interfaces hybridize and their states split off +-i by an amount that
    shrinks exponentially with N / xi (3.7e-4 at N = 46 and (0.908, 0.439);
    at the CLI's default angles none is within the default tolerance at
    N = 14 and 18).
    """
    if N % 2 or N < 12:
        raise ProfileError("interface ring needs even N >= 12")
    lattice = Lattice(N, Topology.RING)
    return make_coin_profile("interface", lattice, phi1=phi1, phi2=phi2,
                             cuts=(1, N // 2 + 1))


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Eigenpairs of the one-step ring operator: all 2N of them, or a window.

    ``full_spectrum`` and ``midgap_spectrum`` hand out read-only arrays.
    """

    eigenvalues: np.ndarray   # (m,) on the unit circle; m = 2N for the full spectrum
    eigenvectors: np.ndarray  # (2N, m), column j belongs to eigenvalues[j]
    profile: CoinProfile

    def amplitudes_of(self, j: int) -> np.ndarray:
        """(N, 2) site-coin amplitude array of eigenvector j."""
        return self.eigenvectors[:, j].reshape(-1, 2)


def _parity_hop(rows: np.ndarray, angles: np.ndarray, up: int, down: int) -> np.ndarray:
    """One coin-and-shift step from one sublattice of a ring to the other.

    Amplitudes are in the real gauge (h, -i v), where the coin C(phi) is the
    rotation [[cos, sin], [-sin, cos]] and the walk is a real orthogonal map.
    Row 2j + c of the (2n, k) array ``rows`` holds coin c of site j of the
    source sublattice, whose n sites carry ``angles``; after the coin, H
    lands on target site j + up and V on j + down (mod n).
    """
    n = angles.size
    pairs = rows.reshape(n, 2, -1)
    out = np.empty_like(pairs)
    coined = _coin(pairs[:, 0], pairs[:, 1], _coin_factors(angles[:, None], real=True))
    for part, moved, shift in zip((0, 1), coined, (up % n, down % n)):
        out[shift:, part], out[:shift, part] = moved[:n - shift], moved[n - shift:]
    return out.reshape(rows.shape)


def _invariant_groups(q: np.ndarray, mq: np.ndarray, re_mu: np.ndarray):
    """Yield (columns, M restricted to them) for the M-invariant groups of q.

    q holds the eigenvectors of the symmetric part of the real M, sorted by
    its eigenvalues re_mu.  A group starts as a run of re_mu closer than
    _GROUP_GAP.  Where eigenvalues of M are close on the unit circle, eigh
    mixes their eigenvectors across a small gap in Re mu, so a group whose
    residual ||M Q_g - Q_g (Q_g^T M Q_g)|| exceeds _MERGE_TOL is merged with
    the neighbour across its smaller gap, if that gap is below _MERGE_GAP.
    A group left with a residual above _PROJECTION_TOL is an error.
    """
    n = re_mu.size
    gaps = np.diff(re_mu)
    cuts = [0, *(np.flatnonzero(gaps > _GROUP_GAP) + 1), n]

    def restrict(s: int, e: int) -> tuple[np.ndarray, float]:
        block = q[:, s:e].T @ mq[:, s:e]
        return block, np.linalg.norm(mq[:, s:e] - q[:, s:e] @ block)

    while True:
        merge = set()
        for s, e in zip(cuts[:-1], cuts[1:]):
            sides = [c for c in (s, e) if 0 < c < n and gaps[c - 1] < _MERGE_GAP]
            if restrict(s, e)[1] > _MERGE_TOL and sides:
                merge.add(min(sides, key=lambda c: gaps[c - 1]))
        if not merge:
            break
        cuts = [c for c in cuts if c not in merge]
    for s, e in zip(cuts[:-1], cuts[1:]):
        block, residual = restrict(s, e)
        if residual > _PROJECTION_TOL:
            raise np.linalg.LinAlgError(
                f"parity-block eigenvectors {s}..{e - 1} not invariant (residual {residual:.1e})")
        yield slice(s, e), block


def _check_ring_size(profile: CoinProfile) -> None:
    """Refuse a profile that is not a ring small enough to solve densely."""
    if profile.lattice.topology is not Topology.RING:
        raise ProfileError("full spectrum needs a ring profile")
    if 2 * profile.lattice.size > 4096:
        raise ProfileError("dense solve limited to 2N <= 4096")


def _sector_tridiagonals(profile: CoinProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two chiral sectors of the symmetric part of M, as cyclic tridiagonals.

    In the real gauge the primed frame turns odd site j by the rotation
    R_j = R(phi_j / 2) = [[c, s], [-s, c]], and chiral symmetry is sigma_x on
    every site: with T = diag(R_j), M' = T M T^T obeys sigma_x M' sigma_x =
    M'^T, so the symmetric part of M' commutes with sigma_x and splits into
    its sigma_x = +1 (s = 0) and -1 (s = 1) sectors.  Returns the frames
    (N/2, 2, 2), whose column s at site j is R_j^T (1, +-1) / sqrt(2), the
    sector-s basis vector of site j in the odd block; and each sector S_s as
    its diagonal and cyclic coupling, both (2, N/2): S_s holds diag[s, j] at
    (j, j) and coupling[s, j] at (j, j + 1 mod N/2) and (j + 1 mod N/2, j).

    M moves odd site j to j - 1, j and j + 1 only, so S_s is tridiagonal
    with one corner, and its entries are written from the coins.  With f0,
    f1 the rows of the frames, (hp, vp) = C(odd) (f0, f1) (hp goes to even
    site j + 1, vp to even site j), (ce, ae, be) the even coins' factors and
    nxt = j + 1 mod N/2:

        diag     = f0 * -(ae * vp) + f1 * (be[nxt] * hp)
        coupling = (f0[nxt] * (ce[nxt] * hp) + f1 * (ce[nxt] * vp[nxt])) / 2

    Each term is the one product of the even coin whose other input is an
    exact zero, summed as f0 x + f1 y, so the entries are bit for bit those
    of basis vectors pushed through the two parity hops and contracted with
    the frames.  With two odd sites both couplings join one pair and every
    consumer adds them; with one, both fold into the diagonal.
    """
    odd, even = profile.angles[1::2], profile.angles[0::2]
    c, s = np.cos(odd / 2), np.sin(odd / 2)
    frames = np.empty((odd.size, 2, 2))
    frames[:, 0, 0], frames[:, 1, 0] = c - s, s + c
    frames[:, 0, 1], frames[:, 1, 1] = c + s, s - c
    frames *= np.sqrt(0.5)
    f0, f1 = frames[:, 0], frames[:, 1]
    hp, vp = _coin(f0, f1, _coin_factors(odd[:, None], real=True))
    ce, ae, be = _coin_factors(even[:, None], real=True)
    nxt = (np.arange(odd.size) + 1) % odd.size
    diag = f0 * -(ae * vp) + f1 * (be[nxt] * hp)
    coupling = (f0[nxt] * (ce[nxt] * hp) + f1 * (ce[nxt] * vp[nxt])) / 2
    if odd.size == 1:
        diag, coupling = diag + 2 * coupling, np.zeros_like(coupling)
    return frames, diag.T, coupling.T


def _dense_sectors(diag: np.ndarray, coupling: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One ``eigh`` of the sectors of ``_sector_tridiagonals`` scattered into dense blocks.

    Returns Re mu per sector (2, N/2) and the eigenvectors of each sector
    in its basis (2, N/2, N/2).
    """
    half = diag.shape[1]
    sites = np.arange(half)
    nxt = (sites + 1) % half
    blocks = np.zeros((2, half, half))
    blocks[:, sites, sites] = diag
    blocks[:, sites, nxt] += coupling
    blocks[:, nxt, sites] += coupling
    return np.linalg.eigh(blocks)


def _cyclic_ldl(diag: list, coupling: list, t: float) -> tuple[list, list, list]:
    """LDL^T of S - t for the cyclic tridiagonal sector S given by (diag, coupling).

    Row i < n - 1 of L holds mults[i] at (i, i - 1), with pivot pivots[i];
    the last row, coupled to row n - 2 and through the corner to row 0,
    holds arrow[i] at (n - 1, i) for every i < n - 1, and its pivot
    pivots[-1] is the Schur complement of the leading rows.  By Sylvester's
    law of inertia the negative pivots count the eigenvalues of S below t,
    the last one by Haynsworth's inertia additivity.  O(N) pure-Python float
    arithmetic; a zero pivot is replaced by -_TINY_PIVOT.
    """
    m = len(diag) - 1
    corner = [0.0] * m  # the last row's coupling to the leading rows
    if m:
        corner[0] = coupling[m]
        corner[m - 1] += coupling[m - 1]
    off = [0.0, *coupling][:m]  # row i's coupling to row i - 1
    pivot = 1.0
    pivots = [pivot := (a - t - b * b / pivot) or -_TINY_PIVOT for a, b in zip(diag[:m], off)]
    mults = [b / p for b, p in zip(off, [1.0, *pivots])]
    y = 0.0
    column = [y := u - l * y for u, l in zip(corner, mults)]  # L^-1 of the corner column
    arrow = [y / p for y, p in zip(column, pivots)]
    pivots.append(diag[m] - t - sum(map(mul, arrow, column)))
    return mults, pivots, arrow


def _count_below(diag: list, coupling: list, t: float) -> int:
    """How many eigenvalues of the sector (diag, coupling) lie below t (see _cyclic_ldl)."""
    return sum(map((0.0).__gt__, _cyclic_ldl(diag, coupling, t)[1]))


def _lowest_eigenpairs(diag: np.ndarray, coupling: np.ndarray, counts: list):
    """The counts[s] lowest eigenpairs of each sector by shift-invert iteration, or None.

    Block inverse iteration with (S_s - sigma)^-1, sigma = -1 - _SHIFT below
    every Re mu (None where S_s - sigma is not positive definite), runs its
    substitutions as pure-Python float loops on the LDL^T of _cyclic_ldl.
    Both sectors iterate as one (2, N/2, k) block of k = max(counts)
    columns from a fixed Weyl sequence, orthonormalized and Rayleigh-Ritz
    projected every sweep, until the residual ||S y - theta y|| of each
    sector's counts[s] lowest Ritz pairs (theta, y) is at most _RESIDUAL.
    Returns their Re mu, ascending, and eigenvectors per sector; None if a
    sweep fails to halve the residual before that.
    """
    solvers = []
    for d, c in zip(diag.tolist(), coupling.tolist()):
        mults, pivots, arrow = _cyclic_ldl(d, c, -1.0 - _SHIFT)
        if min(pivots) <= 0:
            return None
        solvers.append(_substitutions(mults, pivots, arrow))
    half, k = diag.shape[1], max(counts)
    sites = np.arange(half)
    nxt, prv = (sites + 1) % half, (sites - 1) % half
    diag, ahead, behind = diag[:, :, None], coupling[:, :, None], coupling[:, prv, None]
    wanted = np.arange(k) < np.array(counts)[:, None]
    x = (np.arange(1, 2 * half * k + 1) * _GOLDEN % 1 - 0.5).reshape(2, half, k)
    previous = np.inf
    while True:
        columns = x.transpose(0, 2, 1).tolist()
        y = np.array([[solve(c) for c in xs] for solve, xs in zip(solvers, columns)])
        y = y.transpose(0, 2, 1)
        x = np.linalg.qr(y)[0] if k > 1 else y / np.sqrt((y * y).sum(1, keepdims=True))
        sx = diag * x + ahead * x[:, nxt] + behind * x[:, prv]
        theta, rot = np.linalg.eigh(x.transpose(0, 2, 1) @ sx)
        x, sx = x @ rot, sx @ rot
        r = sx - x * theta[:, None]
        residual = (r * r).sum(1)[wanted].max() ** 0.5
        if residual <= _RESIDUAL:
            return [t[:n] for t, n in zip(theta, counts)], [v[:, :n] for v, n in zip(x, counts)]
        if not residual < previous / 2:  # stalled above _RESIDUAL, at the rounding floor
            return None
        previous = residual


def _substitutions(mults: list, pivots: list, arrow: list):
    """The solver x = (L D L^T)^-1 y, on lists, of a factorization from _cyclic_ldl."""
    last, lead = pivots[-1], pivots[-2::-1]
    later, flipped = (mults[1:] + [0.0])[::-1], arrow[::-1]

    def solve(col: list) -> list:
        z = 0.0
        forward = [z := r - l * z for r, l in zip(col, mults)]
        x_last = (col[-1] - sum(map(mul, arrow, forward))) / last
        x = 0.0
        back = [x := z / p - l * x - e * x_last
                for z, p, l, e in zip(reversed(forward), lead, later, flipped)]
        back.reverse()
        back.append(x_last)
        return back

    return solve


def _sector_windows(diag: np.ndarray, coupling: np.ndarray, below: float):
    """Per sector, the Re mu < ``below`` and their eigenvectors; None where eigh must decide.

    Counts of both sectors at ``below`` and at ``top`` certify the window
    (see _cyclic_ldl).  Equal counts leave no Re mu in [below, top), and
    top >= below + _MERGE_GAP, so the window needs no _MERGE_GAP growth; and
    shift-invert iteration from sigma = -1 - _SHIFT then converges on it by
    at least (below - sigma) / (top - sigma) <= _RATE per sweep.  An empty
    window needs nothing more.  Counts that differ return None: the dense
    ``eigh`` of the same tridiagonals decides.
    """
    sigma = -1.0 - _SHIFT
    top = max(below + _MERGE_GAP, sigma + (below - sigma) / _RATE)
    rows = list(zip(diag.tolist(), coupling.tolist()))
    counts = [_count_below(d, c, below) for d, c in rows]
    if not any(counts):
        return [np.empty(0)] * 2, [np.empty((diag.shape[1], 0))] * 2
    if any(_count_below(d, c, top) != k for (d, c), k in zip(rows, counts)):
        return None
    return _lowest_eigenpairs(diag, coupling, counts)


def _ring_spectrum(profile: CoinProfile, below: float) -> SpectrumResult:
    """The eigenpairs of the ring operator U with Re mu = Re lambda^2 in the bottom window.

    The one spectral routine of a ring.  It builds both chiral sectors as
    tridiagonals (see _sector_tridiagonals); for a finite ``below`` the
    inertia counts try to certify the window and iterate its eigenvectors
    (see _sector_windows), and where they cannot, or for ``below`` = inf,
    one dense ``eigh`` solves both sectors (see _dense_sectors).  A certified
    window keeps every column.  A dense one keeps every Re mu < ``below``
    and grows past it until the next gap in Re mu is at least _MERGE_GAP, so
    _invariant_groups never merges across its edge.  Columns are ordered as
    in ``full_spectrum``; the result's arrays are read-only.
    """
    n = profile.lattice.size
    odd, even = profile.angles[1::2], profile.angles[0::2]
    frames, diag, coupling = _sector_tridiagonals(profile)
    window = _sector_windows(diag, coupling, below) if below < np.inf else None
    values, vectors = window or _dense_sectors(diag, coupling)
    sector = np.repeat([0, 1], [len(v) for v in values])
    re_mu, vecs = np.concatenate(values), np.concatenate(vectors, axis=1)
    order = np.argsort(re_mu, kind="stable")
    re_mu = re_mu[order]
    w = re_mu.size if window else int(np.searchsorted(re_mu, below))
    if 0 < w < re_mu.size:
        wide = np.flatnonzero(np.diff(re_mu[w - 1:]) >= _MERGE_GAP)
        w += int(wide[0]) if wide.size else re_mu.size - w
    cols = order[:w]
    # the window's eigenvectors of the symmetric part, pulled back to the odd block
    q = (frames[:, :, sector[cols]] * vecs[:, None, cols]).reshape(n, w)
    aq = _parity_hop(q, odd, 1, 0)
    mq = _parity_hop(aq, even, 0, -1)

    mu = np.empty(w, dtype=complex)
    vec, avec = np.empty((n, w), dtype=complex), np.empty((n, w), dtype=complex)
    for g, block in _invariant_groups(q, mq, re_mu[:w]):
        mu[g], rot = np.linalg.eig(block)
        vec[:, g], avec[:, g] = q[:, g] @ rot, aq[:, g] @ rot

    # row 2x + c with x = 2j + parity; column branch * w + k for lambda = +-sqrt(mu[k])
    psi = np.empty((n // 2, 2, 2, 2, w), dtype=complex)
    lams = _lift(mu, vec.reshape(n // 2, 2, w), avec.reshape(n // 2, 2, w),
                psi[:, 1], psi[:, 0])
    psi[:, :, 1] *= 1j  # back from the real gauge (h, -i v) to lab amplitudes (h, v)
    return SpectrumResult(_read_only(lams), _read_only(psi.reshape(2 * n, 2 * w)), profile)


def full_spectrum(profile: CoinProfile) -> SpectrumResult:
    """Diagonalize the one-step walk matrix U of a ring through its parity blocks.

    The shift flips site parity, so with A (odd sites -> even sites) and B
    (even -> odd) U^2 is block diagonal and its odd block M = B A is an N x N
    orthogonal matrix in the real gauge (see _parity_hop).  The symmetric
    part of M, seen in the primed frame, splits into two N/2 x N/2 chiral
    sectors, each a cyclic tridiagonal matrix (see _sector_tridiagonals);
    this dense reference is ``_ring_spectrum`` with no window bound, one
    ``eigh`` of both sectors scattered into blocks.  A conjugate pair
    mu, conj(mu) puts one Re mu in each sector.  Each group of equal Re mu
    is resolved by a small ``eig`` of M restricted to it.  An eigenpair
    (mu, v) of M gives the two eigenpairs lambda = +-sqrt(mu),
    psi = (v, A v / lambda) / sqrt(2) of U (``bloch._lift``).  The result's
    arrays are read-only.
    """
    _check_ring_size(profile)
    return _ring_spectrum(profile, np.inf)


def midgap_spectrum(profile: CoinProfile, tol: float | None = None) -> SpectrumResult:
    """The eigenpairs of a ring among which ``find_midgap(..., tol)`` finds its states.

    |lambda -+ i| < tol implies Re mu < -1 + 2 tol, since
    Re mu = -1 + |mu + 1|^2 / 2 and |mu + 1| = |lambda - i| |lambda + i|;
    _GROUP_GAP more covers the rounding of Re mu.  Only that bottom window of
    the spectrum is lifted (see _ring_spectrum), in O(N): inertia counts
    certify the window in each tridiagonal sector, and shift-invert
    iteration gives its eigenvectors (see _sector_windows); the counts, not
    the iterated Re mu, fix its width.  Where the counts cannot certify it,
    ``_ring_spectrum`` falls back to the dense ``eigh`` of the same
    tridiagonals, as in ``full_spectrum``, so the window is always the full
    solve's, up to rounding.  With the default tolerance on a closed gap the
    window bound is -inf: the counts there are zero, nothing is solved and
    the result has no eigenpairs.  The result's arrays are read-only.
    """
    _check_ring_size(profile)
    tol = _midgap_tol(profile, tol)
    return _ring_spectrum(profile, -np.inf if tol is None else -1 + 2 * tol + _GROUP_GAP)


@dataclass(frozen=True, eq=False)
class MidgapState:
    """One canonical midgap eigenstate of an interface ring."""

    eigenvalue: complex
    amplitudes: np.ndarray  # (N, 2) lab-frame
    center: int             # first site with maximal probability
    interface_cut: int      # the interchange bond (cut-1, cut) it is bound to
    decay_length: float
    fit_r2: float


def _amplitudes(state) -> np.ndarray:
    """Accept MidgapState / WalkerState / (N,2) or flat (2N,) arrays."""
    if isinstance(state, WalkerState):
        if state.frame is not Frame.LAB:
            raise ValueError("pass lab-frame amplitudes; conversion happens internally")
        return state.amplitudes
    if isinstance(state, MidgapState):
        return state.amplitudes
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 2)
    return arr


def _stokes(amps: np.ndarray, profile: CoinProfile) -> np.ndarray:
    """Primed-frame Stokes parameters (S0, S1, S2, S3) of every site, unnormalized, (4, N).

    Real arithmetic on the real and imaginary parts, with |h|^2 the libm
    ``pow`` of ``hypot``: each entry has the bits of the scalar formula
    |h|^2, 2 Re(h* v), 2 Im(h* v) on NumPy scalars, so one site and a stack
    round alike.
    """
    primed = _rotate_half(amps, profile.angles / 2)
    hr, hi, vr, vi = primed[:, 0].real, primed[:, 0].imag, primed[:, 1].real, primed[:, 1].imag
    h2, v2 = np.float_power(np.hypot(hr, hi), 2), np.float_power(np.hypot(vr, vi), 2)
    return np.stack([h2 + v2, h2 - v2, 2 * (hr * vr + hi * vi), 2 * (hr * vi - hi * vr)])


def _parity_signs(profile: CoinProfile) -> np.ndarray:
    """+1 on the odd sites (sublattice 1), -1 on the even ones."""
    return np.where(profile.lattice.coords() % 2 == 1, 1.0, -1.0)


def coin_y_expectation(state, profile: CoinProfile) -> float:
    """Global ⟨sigma_y⟩ in the primed frame."""
    return float(_stokes(_amplitudes(state), profile)[3].sum())


def cell_z_expectation(state, profile: CoinProfile) -> float:
    """Global ⟨Sigma_z⟩ with sublattice 1 on the odd sites."""
    return float((_parity_signs(profile) * _stokes(_amplitudes(state), profile)[0]).sum())


def anomaly_expectation(state, profile: CoinProfile,
                        registration: str = "interface") -> float:
    """⟨Sigma_z sigma_y⟩ of a normalized state in the primed frame.

    registration="interface" anchors the unit-cell registration to the
    state's own interface: sublattice 1 is the odd sites unless the domain
    right of its cut is parity-interchanged (requires a MidgapState; other
    states fall back to the global registration, where the value vanishes
    anyway for every eigenstate off lambda = +-i).  registration="global"
    uses sublattice 1 = odd sites everywhere; under it the two interfaces of
    a ring report opposite signs.
    """
    amps = _amplitudes(state)
    if not abs(np.linalg.norm(amps) - 1.0) <= 1e-8:
        raise ValueError("state must be normalized")
    if registration not in ("interface", "global"):
        raise ValueError(f"unknown registration {registration!r}")
    signs = _parity_signs(profile)
    if (registration == "interface" and isinstance(state, MidgapState)
            and profile.swapped_at(state.interface_cut)):
        signs = -signs
    return float((signs * _stokes(amps, profile)[3]).sum())


def site_polarization(state, profile: CoinProfile, x: int) -> tuple[float, float, float]:
    """Normalized primed-frame Stokes vector (S1, S2, S3) at site x.

    S3 = +1 is the circular state (|H'> + i|V'>)/sqrt(2).
    """
    return site_polarizations(state, profile, [x])[0]


def site_polarizations(state, profile: CoinProfile, sites) -> list[tuple[float, float, float]]:
    """``site_polarization`` at each site of ``sites``, read from one per-site Stokes array.

    The array is computed in real arithmetic (see _stokes), so a site reads
    the same bits alone as in a stack.  Every site index is checked (a site
    outside a segment raises ProfileError) before occupancy: the first site
    in the order given with S0 <= 1e-10 (or NaN) raises UnoccupiedSiteError.
    """
    sites = list(sites)
    rows = [profile.lattice.index(x) for x in sites]
    stokes = _stokes(_amplitudes(state), profile)[:, rows]
    empty = ~(stokes[0] > 1e-10)
    if empty.any():
        raise UnoccupiedSiteError(f"site {sites[int(np.argmax(empty))]} unoccupied")
    return [tuple(s) for s in (stokes[1:] / stokes[0]).T.tolist()]


def _nearest_cut(profile: CoinProfile, center: int) -> int:
    """The first cut whose bond (c-1, c) has a site nearest to ``center`` around the ring."""
    d = (center - np.asarray(profile.cuts)[:, None] + [0, 1]) % profile.lattice.size
    return profile.cuts[int(np.argmin(np.minimum(d, profile.lattice.size - d).min(axis=1)))]


def _fit_decay(probs: np.ndarray, center: int) -> tuple[float, float]:
    """Exponential fit |psi|^2 ~ exp(-2 d / xi) over the inner half of the range."""
    N = probs.size
    ds = np.arange(1, max(3, N // 4) + 1)
    ps = probs[(center + ds) % N] + probs[(center - ds) % N]
    occupied = ps > probs.max() * 1e-24
    if not occupied.any():
        raise ValueError(f"decay fit around site {center} has no occupied distance "
                         "(midgap tolerance too large?)")
    if occupied.sum() < 3:
        # compact, as where a coin angle is pi/2: no tail to fit, xi -> 0
        return 0.0, 1.0
    ds, logp = ds[occupied].astype(float), np.log(ps[occupied])
    slope, intercept = np.polyfit(ds, logp, 1)
    fitted = slope * ds + intercept
    ss_res = float(((logp - fitted) ** 2).sum())
    ss_tot = float(((logp - logp.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    xi = -2.0 / slope if slope < 0 else np.inf
    return float(xi), float(r2)


def _canonical_cluster_basis(vectors: np.ndarray, profile: CoinProfile) -> np.ndarray:
    """Resolve numerical mixing inside a degenerate midgap cluster.

    The anomaly operator commutes with the evolution on the cluster, so its
    eigenbasis is canonical; any residual degeneracy (both interfaces
    carrying the same anomaly sign) is split by a smooth position weight.
    """
    q, _ = np.linalg.qr(vectors)
    dim = q.shape[1]
    if dim == 1:
        return q
    n_sites = profile.lattice.size
    signs = _parity_signs(profile)

    # W = Sigma_z sigma_y in the primed frame, restricted to the cluster
    qp = _rotate_half(q.reshape(n_sites, 2, dim), profile.angles / 2)
    wq = np.empty_like(qp)
    wq[:, 0, :] = -1j * qp[:, 1, :] * signs[:, None]
    wq[:, 1, :] = 1j * qp[:, 0, :] * signs[:, None]
    wmat = np.einsum("xci,xcj->ij", qp.conj(), wq)
    evals, rot = np.linalg.eigh((wmat + wmat.conj().T) / 2)
    basis = q @ rot

    # split any remaining degeneracy by localization around the first cut
    anchor = profile.cuts[0] if profile.cuts else 0
    weight = np.cos(2 * np.pi * (profile.lattice.coords() - anchor) / n_sites)
    for grp in np.split(np.arange(dim), np.flatnonzero(np.diff(evals) >= 1e-6) + 1):
        if grp.size > 1:
            cols = basis[:, grp].reshape(n_sites, 2, grp.size)
            dmat = np.einsum("xci,x,xcj->ij", cols.conj(), weight, cols)
            _, drot = np.linalg.eigh((dmat + dmat.conj().T) / 2)
            basis[:, grp] = basis[:, grp] @ drot
    return basis


def _midgap_tol(profile: CoinProfile, tol: float | None) -> float | None:
    """``tol``, or by default 1e-4 of the protected gap at +-i; None for a closed gap.

    Where the angles are known, the bulk bands come within 2 sin(gap / 2) of
    +-i, and a tol that reaches them raises ValueError.
    """
    known = profile.phi1 is not None and profile.phi2 is not None
    gap = protected_gaps(profile.phi1, profile.phi2)[1] if known else None
    if tol is None:
        if gap is None:
            raise ValueError("explicit profiles need an explicit tolerance")
        if gap <= 0:
            return None
        tol = 1e-4 * gap
    if not np.isfinite(tol) or tol <= 0:
        raise ValueError("tolerance must be positive and finite")
    if gap is not None and tol >= (bound := 2 * float(np.sin(gap / 2))):
        raise ValueError(f"tolerance {float(tol)!r} reaches the bulk bands, "
                         f"{bound!r} from +-i")
    return tol


def find_midgap(spectrum: SpectrumResult, tol: float | None = None) -> list[MidgapState]:
    """Extract the eigenstates pinned to lambda = +-i, one list entry per state.

    Default tolerance is 1e-4 of the protected gap at +-i; a trivial profile
    (closed gap) yields an empty list.  States inside each degenerate cluster
    are canonicalized (see _canonical_cluster_basis) and annotated with their
    localization center, interface bond and exponential decay length.
    """
    profile = spectrum.profile
    tol = _midgap_tol(profile, tol)
    if tol is None:
        return []

    out: list[MidgapState] = []
    n_sites = profile.lattice.size
    for target in (1j, -1j):
        sel = np.where(np.abs(spectrum.eigenvalues - target) < tol)[0]
        if sel.size == 0:
            continue
        basis = _canonical_cluster_basis(spectrum.eigenvectors[:, sel], profile)
        lam = complex(np.mean(spectrum.eigenvalues[sel]))
        for j in range(basis.shape[1]):
            amps = _read_only(basis[:, j].reshape(n_sites, 2))
            probs = (np.abs(amps) ** 2).sum(axis=1)
            # first site within rounding of the maximum: the two sites of an
            # interface bond carry equal probability
            center = int(np.flatnonzero(probs >= probs.max() * (1 - _CENTER_RTOL))[0])
            xi, r2 = _fit_decay(probs, center)
            cut = _nearest_cut(profile, center) if profile.cuts else 0
            out.append(MidgapState(lam, amps, center, cut, xi, r2))
    out.sort(key=lambda s: (-s.eigenvalue.imag, s.center))
    return out
