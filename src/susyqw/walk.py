"""Real-space walker state and the exact single-step dynamics U = S.C(phi_x).

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
    ring coordinates are ``0 .. size - 1`` with periodic wrapping.
    """

    size: int
    topology: Topology = Topology.SEGMENT
    origin: int = 0

    def __post_init__(self):
        if self.size < 2:
            raise ProfileError(f"lattice needs at least 2 sites, got {self.size}")
        if self.topology is Topology.RING and self.origin != 0:
            raise ProfileError("ring lattice uses origin 0")

    def coords(self) -> np.ndarray:
        return self.origin + np.arange(self.size)

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
    """Per-site coin angles plus the descriptor they were built from."""

    lattice: Lattice
    angles: np.ndarray
    kind: str
    phi1: float | None = None
    phi2: float | None = None
    cuts: tuple[int, ...] = ()
    trivial: bool = False

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

    kind:
      * ``"bulk"``      -- phi1 on odd sites, phi2 on even sites
      * ``"interface"`` -- bulk pattern interchanged across each cut
                           (default: one cut between x=0 and x=1)
      * ``"uniform"``   -- one angle everywhere
      * ``"explicit"``  -- angles given per site
    """
    if isinstance(lattice, int):
        lattice = Lattice(lattice, Topology.SEGMENT, origin=0)
    if lattice.topology is Topology.RING and lattice.size % 2:
        raise ProfileError("unit cell requires even ring")
    coords = lattice.coords()

    if kind == "uniform":
        if phi is None:
            raise ProfileError("uniform profile needs phi")
        return CoinProfile(lattice, np.full(lattice.size, float(phi)), kind, trivial=True)

    if kind == "explicit":
        arr = np.asarray(angles, dtype=float)
        if arr.shape != (lattice.size,):
            raise ProfileError(f"explicit angles must have shape ({lattice.size},)")
        if not np.all(np.isfinite(arr)):
            raise ProfileError("coin angles must be finite")
        return CoinProfile(lattice, arr, kind)

    if kind not in ("bulk", "interface"):
        raise ProfileError(f"unknown profile kind {kind!r}")
    if phi1 is None or phi2 is None:
        raise ProfileError(f"{kind} profile needs phi1 and phi2")
    if not (np.isfinite(phi1) and np.isfinite(phi2)):
        raise ProfileError("coin angles must be finite")

    cut_list: tuple[int, ...] = ()
    if kind == "interface":
        cut_list = (1,) if cuts is None else tuple(int(c) for c in cuts)
        if lattice.topology is Topology.RING:
            if len(cut_list) % 2:
                raise ProfileError("ring needs an even number of interfaces")
            for c in cut_list:
                if not 0 <= c < lattice.size:
                    raise ProfileError(f"interface site {c} outside ring of {lattice.size}")
        else:
            lo, hi = lattice.origin + 1, lattice.origin + lattice.size - 1
            for c in cut_list:
                if not lo <= c <= hi:
                    raise ProfileError(f"interface site {c} outside segment bonds [{lo}, {hi}]")
        if len(set(cut_list)) != len(cut_list):
            raise ProfileError("duplicate interface sites")

    swapped = _swap_flags(coords, cut_list, lattice.topology)
    odd = coords % 2 == 1
    arr = np.where(odd ^ swapped, float(phi1), float(phi2))
    trivial = kind == "interface" and phi1 == phi2
    return CoinProfile(lattice, arr, kind, float(phi1), float(phi2), cut_list, trivial)


def resize_profile(profile: CoinProfile, lattice: Lattice) -> CoinProfile:
    """Re-materialize a descriptor-based profile on another lattice."""
    if profile.kind == "bulk":
        return make_coin_profile("bulk", lattice, phi1=profile.phi1, phi2=profile.phi2)
    if profile.kind == "interface":
        return make_coin_profile("interface", lattice, phi1=profile.phi1,
                                 phi2=profile.phi2, cuts=profile.cuts)
    if profile.kind == "uniform":
        return make_coin_profile("uniform", lattice, phi=float(profile.angles[0]))
    raise ProfileError("cannot resize an explicit profile")


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
    """Normalized walker localized at site x with the given coin spinor."""
    c = np.asarray(coin, dtype=complex)
    if c.shape != (2,) or not np.linalg.norm(c) > 0:
        raise ValueError("coin spinor must be a nonzero 2-vector")
    amps = np.zeros((lattice.size, 2), dtype=complex)
    amps[lattice.index(x)] = c / np.linalg.norm(c)
    return WalkerState(amps, lattice)


def _check_shared_lattice(state: WalkerState, profile: CoinProfile) -> None:
    if state.lattice != profile.lattice:
        raise LatticeMismatchError("state and profile live on different lattices")


def _coin_factors(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos, i sin, -i sin) of the angles: C(phi) = [[c, -i s], [-i s, c]]."""
    s = np.sin(angles)
    return np.cos(angles), 1j * s, -1j * s


def _coin(amps: np.ndarray, factors) -> tuple[np.ndarray, np.ndarray]:
    """The H and V columns of C(phi_x) applied sitewise to (N, 2) amplitudes."""
    c, i_s, minus_i_s = factors
    h, v = amps[:, 0], amps[:, 1]
    return c * h - i_s * v, minus_i_s * h + c * v


def _shift_into(out: np.ndarray, h: np.ndarray, v: np.ndarray, topology: Topology) -> None:
    """Write S(h, v) into ``out``: H one site up, V one site down.

    On a segment the wrapped entries are the zeros the boundary check found.
    ``out`` must not share memory with ``h`` or ``v``.
    """
    if topology is Topology.SEGMENT and (h[-1] != 0 or v[0] != 0):
        raise BoundaryReachedError("walk reached boundary")
    out[1:, 0] = h[:-1]
    out[0, 0] = h[-1]
    out[:-1, 1] = v[1:]
    out[-1, 1] = v[0]


def _rotate_half(amps: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Apply C(angles[x]) sitewise to an (N, 2) amplitude array."""
    return np.stack(_coin(amps, _coin_factors(angles)), axis=1)


def apply_coin(state: WalkerState, profile: CoinProfile) -> WalkerState:
    """Sitewise coin rotation C(phi_x)."""
    _check_shared_lattice(state, profile)
    return replace(state, amplitudes=_rotate_half(state.amplitudes, profile.angles))


def apply_shift(state: WalkerState) -> WalkerState:
    """Move the H component one site up and the V component one site down."""
    amps = state.amplitudes
    shifted = np.empty_like(amps)
    _shift_into(shifted, amps[:, 0], amps[:, 1], state.lattice.topology)
    return replace(state, amplitudes=shifted)


def step(state: WalkerState, profile: CoinProfile) -> WalkerState:
    """One full protocol step, shift after coin; increments the step counter."""
    return evolve(state, profile, 1)


def advance(amps: np.ndarray, profile: CoinProfile, steps: int) -> Iterator[np.ndarray]:
    """Advance ``amps`` in place by ``steps`` protocol steps, yielding it after each.

    ``amps`` is the (N, 2) complex lab-frame buffer of a state on the lattice
    of ``profile``: the coin is evaluated from it and the shift writes the
    result back by slice assignment.  Every step yields the same live array,
    so a consumer that keeps a step must copy it.
    """
    factors = _coin_factors(profile.angles)
    topology = profile.lattice.topology
    for _ in range(steps):
        _shift_into(amps, *_coin(amps, factors), topology)
        yield amps


def evolve(state: WalkerState, profile: CoinProfile, steps: int,
           record: bool = False) -> WalkerState | list[WalkerState]:
    """Apply ``steps`` protocol steps; with record=True return the whole trajectory.

    The amplitudes advance in one buffer (``advance``); a recorded step is a
    copy of it, an unrecorded walk makes no per-step object.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if steps == 0:
        return [state] if record else state
    if state.frame is not Frame.LAB:
        raise ValueError("evolution acts on lab-frame amplitudes")
    _check_shared_lattice(state, profile)
    lattice = state.lattice
    amps = state.amplitudes.astype(complex)
    buffers = advance(amps, profile, steps)
    if record:
        return [state, *(WalkerState(a.copy(), lattice, t)
                         for t, a in enumerate(buffers, state.t + 1))]
    for _ in buffers:
        pass
    return WalkerState(amps, lattice, state.t + steps)


def to_frame(state: WalkerState, profile: CoinProfile, frame: Frame | str) -> WalkerState:
    """Convert amplitudes between the lab basis and the site-local primed basis.

    The primed components at site x are obtained by C(phi_x / 2); the frame
    angle of a site equals the coin angle applied there.  ``frame`` may be a
    Frame or its value, "lab" or "primed"; anything else raises ValueError.
    """
    frame = Frame(frame)
    _check_shared_lattice(state, profile)
    if state.frame is frame:
        return replace(state, amplitudes=state.amplitudes.copy())
    sign = 1.0 if frame is Frame.PRIMED else -1.0
    amps = _rotate_half(state.amplitudes, sign * profile.angles / 2)
    return replace(state, amplitudes=amps, frame=frame)


def one_step_matrix(profile: CoinProfile) -> np.ndarray:
    """Dense 2N x 2N one-step matrix of the walk on a ring.

    Flattened index is 2*x + c with c = 0 (H), 1 (V).
    """
    if profile.lattice.topology is not Topology.RING:
        raise ProfileError("dense one-step matrix is assembled on rings only")
    N = profile.lattice.size
    x = np.arange(N)
    cos, sin = np.cos(profile.angles), np.sin(profile.angles)
    h_row, v_row = 2 * ((x + 1) % N), 2 * ((x - 1) % N) + 1  # H moves up, V down
    umat = np.zeros((2 * N, 2 * N), dtype=complex)
    umat[h_row, 2 * x] = cos
    umat[h_row, 2 * x + 1] = -1j * sin
    umat[v_row, 2 * x] = -1j * sin
    umat[v_row, 2 * x + 1] = cos
    return umat
