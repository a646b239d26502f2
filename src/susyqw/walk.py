"""Real-space walker state and the exact single-step dynamics U = S.C(phi_x).

The coin acts on the polarization basis (H, V) as
C(phi) = exp(-i phi sigma_x) = [[cos phi, -i sin phi], [-i sin phi, cos phi]],
which composes additively in the angle.  ``_coin_factors`` is its one
statement: the walk step, the frame changes, ``coin_matrix`` (read by the
Bloch blocks in ``bloch``) and the dense ring matrix ``one_step_matrix`` all
take their entries from it.

``advance`` is the one coin-and-shift loop over a whole lattice, and the
shift S lives there and in one sublattice hop outside it:
``midgap._parity_hop`` coins one sublattice of a ring and shifts it onto
the other, the two factors of the parity blocks of U^2.  ``advance``
steps a buffer of shape (2, ..., N): the two coin components first, the N
sites last, and any number of walks on one lattice in between.
``evolve`` passes the transpose of its (N, 2) amplitudes; a QWP scan
(``optics``) passes one real array holding the |H> and |V> walks of each of
its profiles.  ``apply_shift`` (identity coin) and ``one_step_matrix`` (two
ring probes) are each one ``advance`` step.

The coin angle pattern is fixed by one parity convention: in the bulk
configuration odd sites carry the first angle ``phi1`` and even sites carry
``phi2`` (the injection site x=1 carries phi1).  An interface is a bond
across which this assignment is interchanged; the standard configuration
puts the swap between x=0 and x=1, so both sites of that bond carry phi1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .errors import BoundaryReachedError, LatticeMismatchError, ProfileError


class Topology(Enum):
    RING = "ring"
    SEGMENT = "segment"


class Frame(Enum):
    LAB = "lab"
    PRIMED = "primed"


@dataclass(frozen=True)
class Lattice:
    """1-d site lattice: a ring of ``size`` sites or a bounded segment.

    Segment sites carry integer coordinates ``origin .. origin + size - 1``;
    ring coordinates are ``0 .. size - 1`` with periodic wrapping.  A
    coordinate outside the int64 range raises OverflowError.
    """

    size: int
    topology: Topology = Topology.SEGMENT
    origin: int = 0

    def __post_init__(self):
        if self.size < 2:
            raise ProfileError(f"lattice needs at least 2 sites, got {self.size}")
        if self.topology is Topology.RING and self.origin != 0:
            raise ProfileError("ring lattice uses origin 0")
        last = self.origin + self.size - 1
        if self.origin < -2**63 or last >= 2**63:  # np.arange would wrap them silently
            raise OverflowError(f"sites [{self.origin}, {last}] leave the int64 range")

    def coords(self) -> np.ndarray:
        coords = self.origin + np.arange(self.size)
        if coords.size != self.size:  # np.arange comes back empty near 2**63 sites
            raise OverflowError(f"lattice of {self.size} sites is too large to lay out")
        return coords

    def index(self, x: int) -> int:
        """Array row of site coordinate x."""
        if self.topology is Topology.RING:
            return int(x) % self.size
        i = int(x) - self.origin
        if not 0 <= i < self.size:
            raise ProfileError(f"site {x} outside segment [{self.origin}, {self.origin + self.size - 1}]")
        return i


def segment_for(x0: int, steps: int) -> Lattice:
    """Segment sized so a walk of ``steps`` steps from x0 never reaches the edge."""
    return Lattice(2 * steps + 5, Topology.SEGMENT, origin=x0 - steps - 2)


def _swap_flags(coords: np.ndarray, cuts: tuple[int, ...], topology: Topology) -> np.ndarray:
    """True where the bulk parity assignment is interchanged.

    A cut at c swaps the pattern across the bond (c-1, c).  On a segment the
    region to the right of every cut keeps the bulk assignment; on a ring the
    region starting at the first cut does.
    """
    if not cuts:
        return np.zeros(coords.shape, dtype=bool)
    if topology is Topology.RING:
        crossings = sum((coords >= c).astype(int) for c in cuts)
        return crossings % 2 == 0
    crossings = sum((coords < c).astype(int) for c in cuts)
    return crossings % 2 == 1


@dataclass(frozen=True, eq=False)
class CoinProfile:
    """Per-site coin angles plus the descriptor they were built from.

    The profile keeps a read-only float copy of the angles it is given, so
    writing the given array later leaves the profile as it was.
    """

    lattice: Lattice
    angles: np.ndarray
    kind: str
    phi1: float | None = None
    phi2: float | None = None
    cuts: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "angles", _read_only(np.array(self.angles, dtype=float)))

    def angle_at(self, x: int) -> float:
        return float(self.angles[self.lattice.index(x)])

    def swapped_at(self, x: int) -> bool:
        """Whether site x sits in a parity-interchanged domain."""
        flag = _swap_flags(np.array([x]), self.cuts, self.lattice.topology)
        return bool(flag[0])


def make_coin_profile(kind: str,
                      lattice: Lattice | int,
                      *,
                      phi1: float | None = None,
                      phi2: float | None = None,
                      phi: float | None = None,
                      angles: Sequence[float] | None = None,
                      cuts: Sequence[int] | None = None) -> CoinProfile:
    """Build a coin profile from a descriptor.

    kind, and the arguments it reads (every other argument is ignored):
      * ``"bulk"``      -- phi1 on odd sites, phi2 on even sites
      * ``"interface"`` -- phi1, phi2 and cuts: the bulk pattern interchanged
                           across each cut (default: one cut between x=0 and x=1)
      * ``"uniform"``   -- phi everywhere, recorded as phi1 = phi2 = phi
      * ``"explicit"``  -- angles, one per site (copied)
    One finiteness check covers the angles (and phi1, phi2) of every kind.
    The profile's angle array is read-only (``CoinProfile`` freezes it).
    """
    if isinstance(lattice, int):
        lattice = Lattice(lattice, Topology.SEGMENT, origin=0)
    ring = lattice.topology is Topology.RING
    if ring and lattice.size % 2:
        raise ProfileError("unit cell requires even ring")

    pair: tuple[float, ...] = ()
    cut_list: tuple[int, ...] = ()
    if kind == "uniform":
        if phi is None:
            raise ProfileError("uniform profile needs phi")
        pair = (float(phi),) * 2
        arr = np.full(lattice.size, pair[0])
    elif kind == "explicit":
        arr = np.array(angles, dtype=float)
        if arr.shape != (lattice.size,):
            raise ProfileError(f"explicit angles must have shape ({lattice.size},)")
    elif kind in ("bulk", "interface"):
        if phi1 is None or phi2 is None:
            raise ProfileError(f"{kind} profile needs phi1 and phi2")
        pair = (float(phi1), float(phi2))
        if kind == "interface":
            cut_list = (1,) if cuts is None else tuple(int(c) for c in cuts)
            if ring and len(cut_list) % 2:
                raise ProfileError("ring needs an even number of interfaces")
            lo, hi = (0 if ring else lattice.origin + 1), lattice.origin + lattice.size - 1
            where = f"ring of {lattice.size}" if ring else f"segment bonds [{lo}, {hi}]"
            for c in cut_list:
                if not lo <= c <= hi:
                    raise ProfileError(f"interface site {c} outside {where}")
            if len(set(cut_list)) != len(cut_list):
                raise ProfileError("duplicate interface sites")
        coords = lattice.coords()
        arr = np.where((coords % 2 == 1) ^ _swap_flags(coords, cut_list, lattice.topology), *pair)
    else:
        raise ProfileError(f"unknown profile kind {kind!r}")

    if not np.isfinite(np.append(arr, pair)).all():
        raise ProfileError("coin angles must be finite")
    return CoinProfile(lattice, arr, kind, *pair, cuts=cut_list)


def resize_profile(profile: CoinProfile, lattice: Lattice) -> CoinProfile:
    """Re-materialize a descriptor-based profile on another lattice."""
    if profile.kind == "explicit":
        raise ProfileError("cannot resize an explicit profile")
    return make_coin_profile(profile.kind, lattice, phi1=profile.phi1, phi2=profile.phi2,
                             phi=profile.phi1, cuts=profile.cuts)


@dataclass(frozen=True, eq=False)
class WalkerState:
    """Complex amplitudes over (site, coin) with a step counter and frame tag."""

    amplitudes: np.ndarray  # (N, 2) complex, columns (H, V)
    lattice: Lattice
    t: int = 0
    frame: Frame = Frame.LAB

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        """Per-(site, coin) probabilities, shape (N, 2)."""
        return np.abs(self.amplitudes) ** 2

    def site_probability(self, x: int) -> float:
        return float(self.probabilities()[self.lattice.index(x)].sum())


def localized_state(lattice: Lattice, x: int, coin: Sequence[complex] = (1.0, 0.0)) -> WalkerState:
    """Normalized walker localized at site x with the given coin spinor; read-only."""
    c = np.asarray(coin, dtype=complex)
    if c.shape != (2,) or not np.linalg.norm(c) > 0:
        raise ValueError("coin spinor must be a nonzero 2-vector")
    amps = np.zeros((lattice.size, 2), dtype=complex)
    amps[lattice.index(x)] = c / np.linalg.norm(c)
    return WalkerState(_read_only(amps), lattice)


def _check_shared_lattice(state: WalkerState, profile: CoinProfile) -> None:
    if state.lattice != profile.lattice:
        raise LatticeMismatchError("state and profile live on different lattices")


def _coin_factors(angles: np.ndarray,
                  real: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, a, b) of C(angles), which maps (h, v) to (c h - a v, b h + c v).

    On lab amplitudes these are (cos, i sin, -i sin): C(phi) = [[c, -i s],
    [-i s, c]].  With ``real`` they act in the real gauge (h, -i v), where
    C(phi) is the rotation [[cos, sin], [-sin, cos]]: (cos, -sin, -sin).
    """
    s = np.sin(angles)
    if real:
        return np.cos(angles), -s, -s
    return np.cos(angles), 1j * s, -1j * s


def coin_matrix(phi: float) -> np.ndarray:
    """C(phi) as a 2x2 matrix, arranged from ``_coin_factors``."""
    c, _, minus_i_s = _coin_factors(phi)
    return np.array([[c, minus_i_s], [minus_i_s, c]])


def _coin(h: np.ndarray, v: np.ndarray, factors,
          out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """C(phi_x) applied sitewise to the coin components h and v.

    The factors of ``_coin_factors`` broadcast against h and v; the two
    results are written into the pair ``out`` where it is given.
    """
    c, a, b = factors
    return np.subtract(c * h, a * v, out=out[0]), np.add(b * h, c * v, out=out[1])


def _rotate_half(amps: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Apply C(angles[x]) sitewise to an (N, 2) or (N, 2, m) amplitude array."""
    angles = angles.reshape(angles.shape + (1,) * (amps.ndim - 2))
    return np.stack(_coin(amps[:, 0], amps[:, 1], _coin_factors(angles)), axis=1)


def _read_only(amps: np.ndarray) -> np.ndarray:
    amps.flags.writeable = False
    return amps


def apply_coin(state: WalkerState, profile: CoinProfile) -> WalkerState:
    """Sitewise coin rotation C(phi_x); the result's amplitudes are read-only."""
    _check_shared_lattice(state, profile)
    return replace(state, amplitudes=_read_only(_rotate_half(state.amplitudes, profile.angles)))


def apply_shift(state: WalkerState) -> WalkerState:
    """Move the H component one site up and the V component one site down.

    One ``advance`` step of a copy of the amplitudes with the identity coin
    (zero angles); the frame and step counter stay, the result is read-only.
    """
    amps = state.amplitudes.copy()
    next(advance(amps.T, np.zeros(state.lattice.size), state.lattice.topology, 1))
    return replace(state, amplitudes=_read_only(amps))


def step(state: WalkerState, profile: CoinProfile) -> WalkerState:
    """One full protocol step, shift after coin; increments the step counter."""
    return evolve(state, profile, 1)


def advance(amps: np.ndarray, angles: np.ndarray, topology: Topology,
            steps: int) -> Iterator[np.ndarray]:
    """Advance ``amps`` in place by ``steps`` protocol steps, yielding it after each.

    ``amps`` has shape (2, ..., N): the two coin components first, the N
    sites of the lattice last, and any number of walks on that lattice in
    between.  It must reshape to (2, -1) without a copy, as the transpose
    of an (N, 2) buffer and a C-contiguous array do; any other layout
    raises ValueError.  Complex amplitudes are the lab components (h, v);
    real ones are the real gauge (h, -i v), where the coin is a rotation
    and a real walk stays real.  ``angles`` has the shape of ``amps[0]``:
    the coin angle at each site of each walk.  Every step yields the same
    live array, so a consumer that keeps a step must copy it.
    """
    flat = amps.reshape(2, -1)
    if not np.may_share_memory(flat, amps):
        raise ValueError("amps must reshape to (2, -1) without a copy")
    h, v = flat
    sites = amps.shape[-1]
    factors = _coin_factors(angles.reshape(h.shape), real=amps.dtype.kind != "c")
    # The shift S moves H one site up and V one site down; in h and v the
    # walks' runs of ``sites`` entries lie end to end.  The coin writes into
    # a zeroed scratch one slot longer than h, H one slot right of where it
    # is copied back from and V one slot left, so one copy per component
    # shifts every run.  What leaves a run lands in an end slot or the next
    # run's free one: on a segment a nonzero there raises before anything is
    # written, on a ring it wraps around in its own run.
    scratch = np.zeros((2, h.size + 1), h.dtype)
    coined = scratch[0, 1:], scratch[1, :-1]
    h_from, v_from = scratch[0, :-1], scratch[1, 1:]
    h_out, v_out = scratch[0, sites::sites], scratch[1, :-1:sites]  # leaving each run
    h_wrap, v_wrap = h[::sites], v[sites - 1::sites]
    ring = topology is Topology.RING
    for _ in range(steps):
        _coin(h, v, factors, coined)
        if not ring and (any(h_out.tolist()) or any(v_out.tolist())):
            raise BoundaryReachedError("walk reached boundary")
        h[:] = h_from
        v[:] = v_from
        if ring:
            h_wrap[:] = h_out
            v_wrap[:] = v_out
        yield amps


def evolve(state: WalkerState, profile: CoinProfile, steps: int) -> WalkerState:
    """The state after ``steps`` protocol steps.

    The amplitudes advance in one buffer (``advance``), and the walk makes
    no per-step object.  The result owns a read-only array; the given state
    is never written, and it is the result of zero steps.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if state.frame is not Frame.LAB:
        raise ValueError("evolution acts on lab-frame amplitudes")
    _check_shared_lattice(state, profile)
    if steps == 0:
        return state
    amps = state.amplitudes.astype(complex)
    for _ in advance(amps.T, profile.angles, state.lattice.topology, steps):
        pass
    return WalkerState(_read_only(amps), state.lattice, state.t + steps)


def to_frame(state: WalkerState, profile: CoinProfile, frame: Frame | str) -> WalkerState:
    """Convert amplitudes between the lab basis and the site-local primed basis.

    The primed components at site x are obtained by C(phi_x / 2); the frame
    angle of a site equals the coin angle applied there.  ``frame`` may be a
    Frame or its value, "lab" or "primed"; anything else raises ValueError.
    The result's amplitudes are read-only.
    """
    frame = Frame(frame)
    _check_shared_lattice(state, profile)
    if state.frame is frame:
        return replace(state, amplitudes=_read_only(state.amplitudes.copy()))
    sign = 1.0 if frame is Frame.PRIMED else -1.0
    amps = _rotate_half(state.amplitudes, sign * profile.angles / 2)
    return replace(state, amplitudes=_read_only(amps), frame=frame)


def one_step_matrix(profile: CoinProfile) -> np.ndarray:
    """Dense 2N x 2N one-step matrix of the walk on a ring.

    Flattened index is 2*x + c with c = 0 (H), 1 (V); column 2*x + c is one
    step of the unit vector e_c at site x.  The entries come from one
    ``advance`` step of two probes: probe c holds e_c on every site.
    """
    if profile.lattice.topology is not Topology.RING:
        raise ProfileError("dense one-step matrix is assembled on rings only")
    n = profile.lattice.size
    probes = np.zeros((2, 2, n), dtype=complex)  # [component, probe c, site]
    probes[0, 0] = probes[1, 1] = 1.0
    next(advance(probes, np.array([profile.angles] * 2), Topology.RING, 1))
    # After the step, H at site y came from y - 1 and V from y + 1, so each
    # probe entry lands in row 2*y (H) or 2*y + 1 (V) of the column of its
    # source; the dense-oracle tests pin these landing rows.  Stepping all
    # 2N unit vectors through ``advance`` gives the same matrix, slower.
    y = np.arange(n)
    matrix = np.zeros((n, 2, n, 2), dtype=complex)  # [y, component, x, c]
    matrix[y, 0, (y - 1) % n] = probes[0].T
    matrix[y, 1, (y + 1) % n] = probes[1].T
    return matrix.reshape(2 * n, 2 * n)
