"""Finite interface rings, midgap-state extraction and anomaly measurements.

A ring holding two pattern interchanges is the finite proxy for a single
semi-infinite interface: it binds two states per protected eigenvalue
lambda = +-i, one per interchange bond.  The anomaly ⟨Sigma_z sigma_y⟩ of a
localized state is measured in the primed frame with the unit-cell
registration anchored to that state's own interface (the registration under
which the bulk pattern to the right of the interface carries the first coin
angle on sublattice 1).  Under a single global registration the two
interfaces of a ring necessarily report opposite signs: the anomaly
operator is traceless on each of the +-i eigenspaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import _lift, protected_gaps
from .errors import ProfileError, UnoccupiedSiteError
from .walk import CoinProfile, Frame, Lattice, Topology, WalkerState, \
    make_coin_profile, _rotate_half

_PROJECTION_TOL = 1e-10
_CENTER_RTOL = 1e-9
# Eigenvalue groups of the odd parity block M (see _invariant_groups).
_GROUP_GAP = 1e-9
_MERGE_TOL = 1e-12
_MERGE_GAP = 1e-2


def ring_with_interfaces(N: int, phi1: float, phi2: float) -> CoinProfile:
    """Ring of N sites with two antipodal pattern interchanges.

    The first interchange sits on the bond (0, 1) like the standard segment
    interface; the second sits half a ring away on (N/2, N/2 + 1).
    """
    if N % 2 or N < 12:
        raise ProfileError("interface ring needs even N >= 12")
    lattice = Lattice(N, Topology.RING)
    return make_coin_profile("interface", lattice, phi1=phi1, phi2=phi2,
                             cuts=(1, N // 2 + 1))


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Full eigen-decomposition of the one-step ring operator."""

    eigenvalues: np.ndarray   # (2N,) on the unit circle
    eigenvectors: np.ndarray  # (2N, 2N), column j belongs to eigenvalues[j]
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
    cos, sin = np.cos(angles)[:, None], np.sin(angles)[:, None]
    src = rows.reshape(angles.size, 2, -1)
    h, v = src[:, 0], src[:, 1]
    out = np.empty_like(src)
    out[:, 0] = np.roll(cos * h + sin * v, up, axis=0)
    out[:, 1] = np.roll(cos * v - sin * h, down, axis=0)
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
    restricted = {}

    def restrict(s: int, e: int) -> tuple[np.ndarray, float]:
        if (s, e) not in restricted:
            block = q[:, s:e].T @ mq[:, s:e]
            restricted[s, e] = block, np.linalg.norm(mq[:, s:e] - q[:, s:e] @ block)
        return restricted[s, e]

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


def full_spectrum(profile: CoinProfile) -> SpectrumResult:
    """Diagonalize the one-step walk matrix U of a ring through its parity blocks.

    The shift flips site parity, so with A (odd sites -> even sites) and B
    (even -> odd) U^2 is block diagonal and its odd block M = B A is an N x N
    orthogonal matrix in the real gauge (see _parity_hop).  M is diagonalized
    by ``eigh`` of its symmetric part, whose eigenvalue Re mu is degenerate
    for each conjugate pair mu, conj(mu); each group of equal Re mu is
    resolved by a small ``eig`` of M restricted to it.  An eigenpair (mu, v)
    of M gives the two eigenpairs lambda = +-sqrt(mu),
    psi = (v, A v / lambda) / sqrt(2) of U (``bloch._lift``).
    """
    if profile.lattice.topology is not Topology.RING:
        raise ProfileError("full spectrum needs a ring profile")
    if 2 * profile.lattice.size > 4096:
        raise ProfileError("dense solve limited to 2N <= 4096")
    n = profile.lattice.size  # parity-block dimension: N/2 sites x 2 coins
    odd, even = profile.angles[1::2], profile.angles[0::2]
    m_mat = _parity_hop(_parity_hop(np.eye(n), odd, 1, 0), even, 0, -1)
    re_mu, q = np.linalg.eigh((m_mat + m_mat.T) / 2)
    aq = _parity_hop(q, odd, 1, 0)
    mq = _parity_hop(aq, even, 0, -1)

    mu = np.empty(n, dtype=complex)
    vec, avec = np.empty((n, n), dtype=complex), np.empty((n, n), dtype=complex)
    for g, block in _invariant_groups(q, mq, re_mu):
        mu[g], rot = np.linalg.eig(block)
        vec[:, g], avec[:, g] = q[:, g] @ rot, aq[:, g] @ rot

    # row 2x + c with x = 2j + parity; column branch * n + k for lambda = +-sqrt(mu[k])
    psi = np.empty((n // 2, 2, 2, 2, n), dtype=complex)
    lams = _lift(mu, vec.reshape(n // 2, 2, n), avec.reshape(n // 2, 2, n),
                psi[:, 1], psi[:, 0])
    psi[:, :, 1] *= 1j  # back from the real gauge (h, -i v) to lab amplitudes (h, v)
    return SpectrumResult(lams, psi.reshape(2 * n, 2 * n), profile)


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


def _primed(amps: np.ndarray, profile: CoinProfile) -> np.ndarray:
    return _rotate_half(amps, profile.angles / 2)


def _coin_y_per_site(amps_primed: np.ndarray) -> np.ndarray:
    return 2.0 * np.imag(np.conj(amps_primed[:, 0]) * amps_primed[:, 1])


def _parity_signs(profile: CoinProfile, plus_on_odd: bool = True) -> np.ndarray:
    odd = profile.lattice.coords() % 2 == 1
    signs = np.where(odd, 1.0, -1.0)
    return signs if plus_on_odd else -signs


def coin_y_expectation(state, profile: CoinProfile) -> float:
    """Global ⟨sigma_y⟩ in the primed frame."""
    amps = _amplitudes(state)
    return float(_coin_y_per_site(_primed(amps, profile)).sum())


def cell_z_expectation(state, profile: CoinProfile) -> float:
    """Global ⟨Sigma_z⟩ with sublattice 1 on the odd sites."""
    amps = _amplitudes(state)
    probs = (np.abs(amps) ** 2).sum(axis=1)
    return float((_parity_signs(profile) * probs).sum())


def _interface_registration(profile: CoinProfile, cut: int) -> np.ndarray:
    """Parity signs with sublattice 1 anchored to the domain right of ``cut``."""
    plus_on_odd = not profile.swapped_at(cut)
    return _parity_signs(profile, plus_on_odd=plus_on_odd)


def anomaly_expectation(state, profile: CoinProfile,
                        registration: str = "interface") -> float:
    """⟨Sigma_z sigma_y⟩ of a normalized state in the primed frame.

    registration="interface" anchors the unit-cell registration to the
    state's own interface (requires a MidgapState; other states fall back to
    the global registration, where the value vanishes anyway for every
    eigenstate off lambda = +-i).  registration="global" uses sublattice 1 =
    odd sites everywhere; under it the two interfaces of a ring report
    opposite signs.
    """
    amps = _amplitudes(state)
    if abs(np.linalg.norm(amps) - 1.0) > 1e-8:
        raise ValueError("state must be normalized")
    if registration == "interface" and isinstance(state, MidgapState):
        signs = _interface_registration(profile, state.interface_cut)
    elif registration in ("interface", "global"):
        signs = _parity_signs(profile)
    else:
        raise ValueError(f"unknown registration {registration!r}")
    return float((signs * _coin_y_per_site(_primed(amps, profile))).sum())


def site_polarization(state, profile: CoinProfile, x: int) -> tuple[float, float, float]:
    """Normalized primed-frame Stokes vector (S1, S2, S3) at site x.

    S3 = +1 is the circular state (|H'> + i|V'>)/sqrt(2).
    """
    amps = _primed(_amplitudes(state), profile)
    h, v = amps[profile.lattice.index(x)]
    p = abs(h) ** 2 + abs(v) ** 2
    if p <= 1e-10:
        raise UnoccupiedSiteError(f"site {x} unoccupied")
    s1 = (abs(h) ** 2 - abs(v) ** 2) / p
    s2 = 2.0 * np.real(np.conj(h) * v) / p
    s3 = 2.0 * np.imag(np.conj(h) * v) / p
    return float(s1), float(s2), float(s3)


def _ring_distance(a: int, b: int, N: int) -> int:
    d = abs(a - b) % N
    return min(d, N - d)


def _nearest_cut(profile: CoinProfile, center: int) -> int:
    N = profile.lattice.size
    # distance of the site to the bond (c-1, c): measure against both bond sites
    def bond_dist(c):
        return min(_ring_distance(center, c % N, N), _ring_distance(center, (c - 1) % N, N))
    return min(profile.cuts, key=bond_dist)


def _fit_decay(probs: np.ndarray, center: int) -> tuple[float, float]:
    """Exponential fit |psi|^2 ~ exp(-2 d / xi) over the inner half of the range."""
    N = probs.size
    d_max = max(3, N // 4)
    ds, ps = [], []
    floor = probs.max() * 1e-24
    for d in range(1, d_max + 1):
        p = probs[(center + d) % N] + probs[(center - d) % N]
        if p > floor:
            ds.append(d)
            ps.append(p)
    if not ds:
        raise ValueError(f"decay fit around site {center} has no occupied distance "
                         "(midgap tolerance too large?)")
    if len(ds) < 3:
        # compact, as where a coin angle is pi/2: no tail to fit, xi -> 0
        return 0.0, 1.0
    ds, logp = np.asarray(ds, dtype=float), np.log(np.asarray(ps))
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
    qp = np.stack([_primed(q[:, j].reshape(n_sites, 2), profile) for j in range(dim)], axis=2)
    wq = np.empty_like(qp)
    wq[:, 0, :] = -1j * qp[:, 1, :] * signs[:, None]
    wq[:, 1, :] = 1j * qp[:, 0, :] * signs[:, None]
    wmat = np.einsum("xci,xcj->ij", qp.conj(), wq)
    evals, rot = np.linalg.eigh((wmat + wmat.conj().T) / 2)
    basis = q @ rot

    # split any remaining degeneracy by localization around the first cut
    anchor = profile.cuts[0] if profile.cuts else 0
    weight = np.cos(2 * np.pi * (profile.lattice.coords() - anchor) / n_sites)
    out = np.empty_like(basis)
    j = 0
    while j < dim:
        grp = [j]
        while grp[-1] + 1 < dim and abs(evals[grp[-1] + 1] - evals[j]) < 1e-6:
            grp.append(grp[-1] + 1)
        sub = basis[:, grp]
        if len(grp) > 1:
            cols = sub.reshape(n_sites, 2, len(grp))
            dmat = np.einsum("xci,x,xcj->ij", cols.conj(), weight, cols)
            _, drot = np.linalg.eigh((dmat + dmat.conj().T) / 2)
            sub = sub @ drot
        out[:, grp] = sub
        j = grp[-1] + 1
    return out


def find_midgap(spectrum: SpectrumResult, tol: float | None = None) -> list[MidgapState]:
    """Extract the eigenstates pinned to lambda = +-i, one list entry per state.

    Default tolerance is 1e-4 of the protected gap at +-i; a trivial profile
    (closed gap) yields an empty list.  States inside each degenerate cluster
    are canonicalized (see _canonical_cluster_basis) and annotated with their
    localization center, interface bond and exponential decay length.
    """
    profile = spectrum.profile
    if tol is None:
        if profile.phi1 is None or profile.phi2 is None:
            raise ValueError("explicit profiles need an explicit tolerance")
        gap = protected_gaps(profile.phi1, profile.phi2)[1]
        if gap <= 0:
            return []
        tol = 1e-4 * gap
    if not np.isfinite(tol) or tol <= 0:
        raise ValueError("tolerance must be positive and finite")

    out: list[MidgapState] = []
    n_sites = profile.lattice.size
    for target in (1j, -1j):
        sel = np.where(np.abs(spectrum.eigenvalues - target) < tol)[0]
        if sel.size == 0:
            continue
        basis = _canonical_cluster_basis(spectrum.eigenvectors[:, sel], profile)
        lam = complex(np.mean(spectrum.eigenvalues[sel]))
        for j in range(basis.shape[1]):
            amps = basis[:, j].reshape(n_sites, 2)
            probs = (np.abs(amps) ** 2).sum(axis=1)
            # first site within rounding of the maximum: the two sites of an
            # interface bond carry equal probability
            center = int(np.flatnonzero(probs >= probs.max() * (1 - _CENTER_RTOL))[0])
            xi, r2 = _fit_decay(probs, center)
            cut = _nearest_cut(profile, center) if profile.cuts else 0
            out.append(MidgapState(lam, amps, center, cut, xi, r2))
    out.sort(key=lambda s: (-s.eigenvalue.imag, s.center))
    return out
