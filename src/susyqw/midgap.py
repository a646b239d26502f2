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

from .bloch import protected_gaps
from .errors import ProfileError, UnoccupiedSiteError
from .walk import CoinProfile, Frame, Lattice, Topology, WalkerState, \
    make_coin_profile, one_step_matrix, _rotate_half

_PROJECTION_TOL = 1e-10


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
    """Full eigen-decomposition of the dense one-step ring operator."""

    eigenvalues: np.ndarray   # (2N,) on the unit circle
    eigenvectors: np.ndarray  # (2N, 2N), column j belongs to eigenvalues[j]
    profile: CoinProfile

    def amplitudes_of(self, j: int) -> np.ndarray:
        """(N, 2) site-coin amplitude array of eigenvector j."""
        return self.eigenvectors[:, j].reshape(-1, 2)


def full_spectrum(profile: CoinProfile) -> SpectrumResult:
    """Dense diagonalization of the one-step walk matrix on a ring."""
    if profile.lattice.topology is not Topology.RING:
        raise ProfileError("full spectrum needs a ring profile")
    if 2 * profile.lattice.size > 4096:
        raise ProfileError("dense solve limited to 2N <= 4096")
    umat = one_step_matrix(profile)
    lam, vec = np.linalg.eig(umat)
    mod = np.abs(lam)
    if np.max(np.abs(mod - 1.0)) > _PROJECTION_TOL:
        raise np.linalg.LinAlgError("ring eigenvalues off the unit circle")
    vec = vec / np.linalg.norm(vec, axis=0, keepdims=True)
    return SpectrumResult(lam / mod, vec, profile)


@dataclass(frozen=True, eq=False)
class MidgapState:
    """One canonical midgap eigenstate of an interface ring."""

    eigenvalue: complex
    amplitudes: np.ndarray  # (N, 2) lab-frame
    center: int             # site with maximal probability
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
    if len(ds) < 2:
        raise ValueError(f"decay fit around site {center} has {len(ds)} occupied distances, "
                         "needs 2 (midgap tolerance too large?)")
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
            center = int(np.argmax(probs))
            xi, r2 = _fit_decay(probs, center)
            cut = _nearest_cut(profile, center) if profile.cuts else 0
            out.append(MidgapState(lam, amps, center, cut, xi, r2))
    out.sort(key=lambda s: (-s.eigenvalue.imag, s.center))
    return out
