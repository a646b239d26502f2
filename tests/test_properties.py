"""Property tests of the walk kernel, the QWP scans, the ring spectrum and the bands.

The walk, scan, decay-length and long-walk tests draw coin angles from the
gapped box phi1 in [1.1, 1.4], phi2 in [0.1, 0.3], which stays clear of the
gap closing at phi1 = phi2; the spectrum, ring-symmetry, batched-scan,
partner-solve and eigenvalue-path tests draw any angles, gap closings
included; the quadrant and anomaly tests draw angles with both protected
gaps open, and the winding exchange, half-band and torus-oracle tests any
angles with both gaps at least 1e-3, the winding ones at every resolution
in [256, 4097], odd included; the whole-torus winding test draws any angles
with both gaps at least 1e-6, at every such resolution; the midgap-sign
test draws angles on (-pi, pi) with both gaps at least 0.05 and 30 xi at
most 150; the midgap-window test draws any interface angles in (0, pi/2),
small gaps included, and so does the sector-inertia test; the
Stokes-readout test any angles on explicit rings.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from susyqw import bloch, midgap, optics
from susyqw import (Frame, Lattice, Topology, UnoccupiedSiteError, WalkerState,
                    anomaly_expectation, band_condition_value, band_structure, bloch_operator,
                    cell_z_expectation, coin_y_expectation, decay_length, evolve, find_midgap,
                    full_spectrum, localized_state, long_time_extrapolation, make_coin_profile,
                    measure_bases, midgap_spectrum, one_step_matrix, prepare_input,
                    protected_gaps, quadruple_closure_distance, qwp_scan, ring_with_interfaces,
                    segment_for, site_polarization, site_polarizations, to_frame, torus_angles,
                    waveplate, winding_numbers)

from helpers import (SY, assert_same_eigenspaces, assert_same_states, bloch_oracle,
                     multiset_distance, primed_frame_rotation, stokes_oracle, torus_oracle,
                     trajectory)

PHI1 = st.floats(min_value=1.1, max_value=1.4)
PHI2 = st.floats(min_value=0.1, max_value=0.3)
ANGLE = st.floats(min_value=-np.pi, max_value=np.pi)
# every resolution ``winding`` accepts, odd ones included, up to 4097
RESOLUTION = st.integers(min_value=256, max_value=4097)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["interface", "bulk", "uniform"]),
       phi1=PHI1, phi2=PHI2, steps=st.integers(min_value=0, max_value=30),
       cell=st.booleans(),
       angles=st.lists(st.floats(min_value=0.0, max_value=180.0), min_size=1, max_size=5))
def test_linear_scan_matches_per_angle_evolution(data, kind, phi1, phi2, steps, cell, angles):
    """Two basis evolutions and a 2x2 form give every per-angle probe intensity."""
    # wide enough for the walk from site 1 and, for the interface, the bond (0, 1)
    lattice = Lattice(2 * steps + 12, Topology.SEGMENT, origin=-steps - 5)
    if kind == "uniform":
        profile = make_coin_profile("uniform", lattice, phi=phi1)
    else:
        profile = make_coin_profile(kind, lattice, phi1=phi1, phi2=phi2)
    probe = data.draw(st.integers(min_value=-steps, max_value=1 + steps))
    scan = long_time_extrapolation if cell else qwp_scan
    curve = scan(profile, steps, probe, angles_deg=angles)

    expected = []
    for theta in angles:
        final = evolve(prepare_input(1, [("qwp", theta)], lattice), profile, steps)
        expected.append(sum(final.site_probability(x) for x in (probe, probe + 1)[:1 + cell]))
    np.testing.assert_allclose(curve.intensities, expected, rtol=0, atol=1e-12)
    assert curve.intensities.max() <= curve.sphere_max + 1e-12
    assert curve.sphere_max <= 1 + 1e-12


def assert_recorded_steps_are_single_step_copies(trajectory, profile):
    """Each recorded state owns its array, and it is bit for bit one step of the last."""
    arrays = [s.amplitudes for s in trajectory]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    for before, after in zip(trajectory, trajectory[1:]):
        single = evolve(before, profile, 1)
        assert single.t == after.t
        # int64 views compare bit patterns, so -0.0 and +0.0 differ
        np.testing.assert_array_equal(single.amplitudes.view(np.int64),
                                      after.amplitudes.view(np.int64))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["interface", "bulk", "uniform"]), phi1=PHI1, phi2=PHI2,
       steps=st.integers(min_value=0, max_value=30),
       plate=st.floats(min_value=0.0, max_value=180.0))
def test_segment_trajectory_is_a_chain_of_single_steps(kind, phi1, phi2, steps, plate):
    """Each step count of a segment walk is that many single steps; no two share an array."""
    lattice = segment_for(1, steps)
    if kind == "uniform":
        profile = make_coin_profile("uniform", lattice, phi=phi1)
    else:
        profile = make_coin_profile(kind, lattice, phi1=phi1, phi2=phi2)
    start = prepare_input(1, [("qwp", plate)], lattice)
    walk = trajectory(start, profile, steps)
    assert walk[0] is start and len(walk) == steps + 1
    assert_recorded_steps_are_single_step_copies(walk, profile)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["interface", "bulk"]), phi1=PHI1, phi2=PHI2,
       cells=st.integers(min_value=2, max_value=6),
       steps=st.integers(min_value=0, max_value=30),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_ring_evolution_matches_matrix_power(kind, phi1, phi2, cells, steps, seed):
    """The in-place kernel is U^t on a ring, and it keeps the norm."""
    ring = Lattice(2 * cells, Topology.RING)
    cuts = (1, cells + 1) if kind == "interface" else None
    profile = make_coin_profile(kind, ring, phi1=phi1, phi2=phi2, cuts=cuts)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((ring.size, 2)) + 1j * rng.standard_normal((ring.size, 2))
    amps /= np.linalg.norm(amps)

    walk = trajectory(WalkerState(amps, ring), profile, steps)
    final = walk[-1]
    expected = np.linalg.matrix_power(one_step_matrix(profile), steps) @ amps.ravel()
    np.testing.assert_allclose(final.amplitudes.ravel(), expected, rtol=0, atol=1e-12)
    assert abs(final.norm() - 1.0) <= 1e-12
    assert [s.t for s in walk] == list(range(steps + 1))
    np.testing.assert_array_equal(evolve(WalkerState(amps, ring), profile, steps).amplitudes,
                                  final.amplitudes)
    assert_recorded_steps_are_single_step_copies(walk, profile)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), cells=st.integers(min_value=2, max_value=30))
def test_parity_block_spectrum_matches_dense_eig(data, cells):
    """The parity-block solve gives the spectrum of the dense U and its eigenvectors.

    The spectrum is closed under conjugation and negation (chiral symmetry and
    SUSY) to criterion 1's 1e-10.
    """
    angles = data.draw(st.lists(ANGLE, min_size=2 * cells, max_size=2 * cells))
    profile = make_coin_profile("explicit", Lattice(2 * cells, Topology.RING), angles=angles)
    spectrum = full_spectrum(profile)
    umat = one_step_matrix(profile)
    lam, psi = spectrum.eigenvalues, spectrum.eigenvectors
    assert multiset_distance(lam, np.linalg.eig(umat).eigenvalues) <= 1e-9
    assert np.linalg.norm(umat @ psi - psi * lam, axis=0).max() <= 1e-12
    np.testing.assert_allclose(np.linalg.norm(psi, axis=0), 1.0, rtol=0, atol=1e-12)
    assert quadruple_closure_distance(lam) < 1e-10


@settings(max_examples=30, deadline=None)
@given(phi1=ANGLE, phi2=ANGLE, cells=st.integers(min_value=2, max_value=24))
def test_bulk_ring_spectrum_is_the_bloch_spectrum(phi1, phi2, cells):
    """A bulk ring of m cells has the Bloch eigenvalues at the m momenta 2 pi j / m."""
    ring = make_coin_profile("bulk", Lattice(2 * cells, Topology.RING), phi1=phi1, phi2=phi2)
    bloch = np.concatenate([np.linalg.eigvals(bloch_operator(2 * np.pi * j / cells,
                                                             phi1, phi2).matrix)
                            for j in range(cells)])
    assert multiset_distance(full_spectrum(ring).eigenvalues, bloch) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(phi1=ANGLE, phi2=ANGLE, resolution=st.integers(min_value=1, max_value=1024))
def test_gapped_bands_keep_their_quadrants(phi1, phi2, resolution):
    """With both protected gaps open, band b lies in [b pi/2, (b+1) pi/2) at every k."""
    assume(min(protected_gaps(phi1, phi2)) >= 0.05)
    bands = band_structure(phi1, phi2, resolution=resolution)
    quadrant = np.arange(4) * np.pi / 2
    assert np.all(bands.quasienergies >= quadrant)
    assert np.all(bands.quasienergies < quadrant + np.pi / 2)
    u = bloch_oracle(bands.k_grid, phi1, phi2)
    residual = u @ bands.eigenvectors - bands.eigenvectors * bands.eigenvalues[:, None, :]
    assert np.linalg.norm(residual, axis=1).max() <= 1e-12
    if resolution >= 256:
        # the gauge carries the phase along k, so neighbouring overlaps are real positive
        overlaps = np.einsum("kab,kab->kb", bands.eigenvectors[:-1].conj(),
                             bands.eigenvectors[1:])
        assert overlaps.real.min() > 0.99


@settings(max_examples=40, deadline=None)
@given(phi1=ANGLE, phi2=ANGLE, resolution=RESOLUTION)
def test_swapped_winding_report_is_the_direct_solve(phi1, phi2, resolution):
    """Swapping the angles moves the unit cell by one site, so one solve gives both orders.

    ``swapped`` matches ``winding_numbers(phi2, phi1)``, and every band's
    windings differ between the two orders by +-(1, -1, 1).
    """
    assume(min(protected_gaps(phi1, phi2)) >= 1e-3)
    forward = winding_numbers(phi1, phi2, resolution)
    derived, direct = forward.swapped(), winding_numbers(phi2, phi1, resolution)
    assert (derived.phi1, derived.phi2, derived.resolution, derived.windings) == \
        (direct.phi1, direct.phi2, direct.resolution, direct.windings)
    np.testing.assert_allclose(derived.residuals, direct.residuals, rtol=0, atol=1e-12)
    np.testing.assert_allclose([derived.gap_at_real, derived.gap_at_imag],
                               [direct.gap_at_real, direct.gap_at_imag], rtol=0, atol=1e-14)
    for wf, ws in zip(forward.windings, direct.windings):
        assert tuple(a - b for a, b in zip(wf, ws)) in {(1, -1, 1), (-1, 1, -1)}


def wrapped(angle):
    """An angle difference mapped into [-pi, pi)."""
    return np.mod(angle + np.pi, 2 * np.pi) - np.pi


@settings(max_examples=60, deadline=None)
@given(phi1=ANGLE, phi2=ANGLE, k=st.floats(min_value=0.0, max_value=2 * np.pi))
def test_torus_angles_match_the_operator_expectations(phi1, phi2, k):
    """The 2-vector forms of ``torus_angles`` are the 4x4 operator expectations."""
    assume(min(protected_gaps(phi1, phi2)) >= 1e-3)
    stack = band_structure(phi1, phi2, k_grid=np.array([k])).eigenvectors[0].T
    angles, radii = torus_oracle(stack)
    np.testing.assert_allclose(radii, 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(wrapped(torus_angles(stack) - angles), 0.0, rtol=0, atol=1e-14)


def loop_windings(loop):
    """Windings (4, 3) of every band, accumulated by ``torus_oracle`` over a closed k loop.

    ``loop`` is a ``band_structure`` on a grid from 0 to 2 pi, both ends
    included; each wrapped step of the angles is added up and rounded.
    """
    total = wrapped(np.diff(torus_oracle(np.swapaxes(loop.eigenvectors, 1, 2))[0], axis=0))
    return tuple(tuple(int(x) for x in row) for row in np.rint(total.sum(axis=0) / (2 * np.pi)))


@settings(max_examples=40, deadline=None)
@given(phi1=ANGLE, phi2=ANGLE, resolution=RESOLUTION)
def test_winding_reads_half_the_bands(phi1, phi2, resolution):
    """Band b + 2 is the -lambda partner of band b, with the same windings.

    The partner has the same alpha and beta and a gamma turned by pi at
    every k.  ``winding_numbers`` equals a 4-band accumulation of the
    operator-expectation angles on the same grid, and its residuals are the
    largest |Re lambda^2 - band condition| of each band on that grid.
    """
    assume(min(protected_gaps(phi1, phi2)) >= 1e-3)
    loop = band_structure(phi1, phi2, k_grid=np.linspace(0.0, 2 * np.pi, resolution + 1))
    stack = np.swapaxes(loop.eigenvectors, 1, 2)
    turn = wrapped(torus_angles(stack[:, 2:]) - torus_angles(stack[:, :2]))
    np.testing.assert_allclose(turn[..., :2], 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.abs(turn[..., 2]), np.pi, rtol=0, atol=1e-12)

    report = winding_numbers(phi1, phi2, resolution)
    assert report.windings == loop_windings(loop)
    re_lam2 = (loop.eigenvalues[:-1] ** 2).real
    dispersion = np.abs(re_lam2 - band_condition_value(loop.k_grid[:-1], phi1, phi2)[:, None])
    assert report.residuals == tuple(dispersion.max(axis=0).tolist())
    assert max(report.residuals) <= 1e-6


@settings(max_examples=60, deadline=None)
@example(phi1=1.0231724466312961, phi2=-2.1184237704218063, resolution=257)
@given(phi1=ANGLE, phi2=ANGLE, resolution=RESOLUTION)
def test_winding_is_the_torus_angle_loop_over_the_whole_torus(phi1, phi2, resolution):
    """The closed-form windings are the loop's at 2048 k points, at any resolution.

    Drawn over the whole torus, near gap closings too, wherever both analytic
    gaps are at least 1e-6 (the refusal threshold).  The example has a gap
    at +-1 of 1.78e-6; a loop on its own odd grid of 257 points, which
    misses k = pi, read (0, 0, 1) there.
    """
    assume(min(protected_gaps(phi1, phi2)) >= 1e-6)
    loop = band_structure(phi1, phi2, k_grid=np.linspace(0.0, 2 * np.pi, 2049))
    assert winding_numbers(phi1, phi2, resolution).windings == loop_windings(loop)


# an angle pair that is often on a gap closing: phi2 = phi1 or phi2 = -phi1
CLOSING_PRONE = ANGLE.flatmap(lambda a: st.tuples(st.just(a),
                                                  st.one_of(st.just(a), st.just(-a), ANGLE)))


def gram_scan(profile, steps, probe, angles_deg, cell):
    """Probe intensities and sphere maximum from two separate complex walks from site 1."""
    lattice = profile.lattice
    rows = [lattice.index(x) for x in (probe, probe + 1)[:1 + cell]]
    finals = [evolve(localized_state(lattice, 1, coin), profile, steps)
              for coin in ((1.0, 0.0), (0.0, 1.0))]
    psi = np.stack([final.amplitudes[rows].ravel() for final in finals], axis=1)
    gram = psi.conj().T @ psi
    coins = waveplate("qwp", angles_deg)[:, :, 0]
    return (np.einsum("ka,ab,kb->k", coins.conj(), gram, coins).real,
            float(np.linalg.eigvalsh(gram)[-1]))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), angles=CLOSING_PRONE, steps=st.integers(min_value=0, max_value=60),
       cell=st.booleans())
def test_batched_real_gauge_scan_is_the_gram_of_separate_walks(data, angles, steps, cell):
    """One real-gauge walk of both profiles and inputs gives the complex walks' scan bit for bit."""
    lattice = segment_for(1, steps)
    profiles = [make_coin_profile(kind, lattice, phi1=angles[0], phi2=angles[1])
                for kind in ("interface", "bulk")]
    probe = data.draw(st.integers(min_value=lattice.origin,
                                  max_value=lattice.origin + lattice.size - 1 - cell))
    grid = np.arange(0.0, 180.0, 7.5)
    scan = long_time_extrapolation if cell else qwp_scan
    batch = optics.scan(profiles, steps, probe, grid, cell_probe=cell)
    for profile, batched in zip(profiles, batch):
        values, top = gram_scan(profile, steps, probe, grid, cell)
        for curve in (scan(profile, steps, probe, grid), batched):
            np.testing.assert_array_equal(bits(curve.intensities), bits(values))
            assert bits(curve.sphere_max) == bits(top)


@settings(max_examples=60, deadline=None)
@example(angles=(0.7, 0.7), ks=[], frame=Frame.PRIMED)
@example(angles=(0.7, 0.7), ks=[0.0, 2 * np.pi], frame=Frame.LAB)
@example(angles=(np.pi / 2, np.pi / 2), ks=[j * np.pi / 32 for j in range(64)], frame=Frame.LAB)
@example(angles=(np.pi / 2, np.pi / 2), ks=[j * np.pi / 32 for j in range(64)],
         frame=Frame.PRIMED)
@example(angles=(0.0, 0.0), ks=[0.0], frame=Frame.LAB)
@example(angles=(2.0, -2.0), ks=[0.0], frame=Frame.LAB)
@example(angles=(0.0, 0.0), ks=[2.2250738585e-313], frame=Frame.LAB)
@example(angles=(2.5, -2.5), ks=[5e-324], frame=Frame.LAB)
@given(angles=CLOSING_PRONE, frame=st.sampled_from(list(Frame)),
       ks=st.lists(st.floats(min_value=0.0, max_value=2 * np.pi), max_size=12))
def test_partner_solve_matches_the_bloch_eig(angles, frame, ks):
    """The closed-form partner solve is an orthonormal eigenbasis of u(k), at closings too.

    Against a 4x4 ``eig`` of ``bloch_operator``: the same eigenvalues, and
    eigenvectors that solve u(k) psi = lambda psi (u from ``bloch_oracle``)
    with a Gram matrix of 1, all within 1e-12.  Angles come from the whole
    torus and from the closings.  Every k grid holds k = pi, where
    phi1 = phi2 closes the gap at lambda = +-i (the partner walk is -1
    there); phi1 = -phi2 closes the gap at +-1 at k = 0.  The examples are
    degenerate partners: at (pi/2, pi/2) u12 u21 is -1 up to rounding at
    every k, and at (0, 0) and (2, -2) in the lab frame it is exactly 1 at
    k = 0 (the grids of resolution 1 and 2 hold k = 0 and pi), where both
    rows of u12 u21 - mu are zero; at a subnormal k the rows are subnormal
    or zero.
    """
    phi1, phi2 = angles
    k_grid = np.sort([np.pi, *ks])
    bands = band_structure(phi1, phi2, k_grid=k_grid, frame=frame)
    lams, vecs = bands.eigenvalues, bands.eigenvectors
    for k, lam, psi in zip(k_grid, lams, vecs):
        ref = np.linalg.eig(bloch_operator(k, phi1, phi2, frame).matrix).eigenvalues
        assert multiset_distance(lam, ref) <= 1e-12
        assert np.linalg.norm(psi.conj().T @ psi - np.eye(4), 2) <= 1e-12
    u = bloch_oracle(k_grid, phi1, phi2, primed=frame is Frame.PRIMED)
    residual = u @ vecs - vecs * lams[:, None, :]
    assert np.linalg.norm(residual, axis=1).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@example(angles=(0.7, 0.7), resolution=2048, frame=Frame.PRIMED)
@example(angles=(0.7, -0.7), resolution=2048, frame=Frame.PRIMED)
@example(angles=(0.7, 0.7015), resolution=2048, frame=Frame.PRIMED)
@example(angles=(np.pi / 2, 0.3), resolution=2048, frame=Frame.PRIMED)
@example(angles=(0.0, 0.0), resolution=2048, frame=Frame.LAB)
@example(angles=(np.pi / 2, np.pi / 2), resolution=2048, frame=Frame.LAB)
@given(angles=CLOSING_PRONE, frame=st.sampled_from(list(Frame)),
       resolution=st.sampled_from([1, 2, 3, 255, 2048]))
def test_eigenvalue_path_is_the_band_structure_bit_for_bit(angles, frame, resolution):
    """``bands`` and ``winding`` read the eigenvalues of ``band_structure``'s eigenpairs, exactly.

    Both take them from the same closed-form partner eigenvalues.  Equality,
    not closeness: an eigenvalue path that rounded apart from the eigenpair
    path would print bands whose eigenvectors ``band_structure`` does not give.
    """
    phi1, phi2 = angles
    full = band_structure(phi1, phi2, resolution=resolution, frame=frame)
    fast = bloch._band_energies(phi1, phi2, resolution=resolution, frame=frame)
    assert np.array_equal(fast.k_grid, full.k_grid)
    assert np.array_equal(fast.eigenvalues, full.eigenvalues)
    assert np.array_equal(fast.quasienergies, full.quasienergies)
    assert (fast.gap_at_real(), fast.gap_at_imag()) == (full.gap_at_real(), full.gap_at_imag())


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cells=st.integers(min_value=2, max_value=30))
def test_primed_ring_step_is_chiral_and_supersymmetric(data, cells):
    """In the primed frame, Gamma U' Gamma = U'^dagger and Sigma_z U' Sigma_z = -U'.

    Gamma is sigma_y on every site; Sigma_z is +1 on odd sites and -1 on even
    ones.  Both hold site by site, so any explicit even ring obeys them.
    """
    angles = data.draw(st.lists(ANGLE, min_size=2 * cells, max_size=2 * cells))
    profile = make_coin_profile("explicit", Lattice(2 * cells, Topology.RING), angles=angles)
    v = primed_frame_rotation(angles)
    primed = v @ one_step_matrix(profile) @ v.conj().T
    gamma = np.kron(np.eye(2 * cells), SY)
    sigma_z = np.kron(np.diag(np.where(np.arange(2 * cells) % 2 == 1, 1.0, -1.0)), np.eye(2))
    assert np.abs(gamma @ primed @ gamma - primed.conj().T).max() <= 1e-12
    assert np.abs(sigma_z @ primed @ sigma_z + primed).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(phi1=st.floats(min_value=0.0, max_value=np.pi / 2, exclude_min=True, exclude_max=True),
       phi2=st.floats(min_value=0.0, max_value=np.pi / 2, exclude_min=True, exclude_max=True),
       n=st.sampled_from([40, 200]))
def test_interface_anomaly_over_the_phase_diagram(phi1, phi2, n):
    """Four midgap states, each with anomaly -1 for phi2 < phi1 and +1 swapped."""
    assume(phi2 < phi1 and min(protected_gaps(phi1, phi2)) >= 0.1)
    for (a, b), sign in (((phi1, phi2), -1.0), ((phi2, phi1), 1.0)):
        profile = ring_with_interfaces(n, a, b)
        states = find_midgap(full_spectrum(profile))
        assert len(states) == 4
        for state in states:
            assert abs(anomaly_expectation(state, profile) - sign) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(phi1=PHI1, phi2=PHI2)
def test_fitted_decay_length_is_the_analytic_one(phi1, phi2):
    """The fitted decay length of every midgap state on an N = 200 ring is xi.

    Over the gapped box the fits lie within 0.30% of ``decay_length`` (1600
    random points, the corners and a 13 x 13 grid; largest at phi1 = 1.4),
    because the fit also takes the sites next to the interface; 0.5% is
    allowed.
    """
    xi = decay_length(phi1, phi2)
    states = find_midgap(full_spectrum(ring_with_interfaces(200, phi1, phi2)))
    assert len(states) == 4
    for state in states:
        assert abs(state.decay_length / xi - 1) <= 5e-3


def states_at_first_cut(phi1, phi2):
    """The ring of ``ring_with_interfaces(400, ...)`` and its two midgap states bound to cut 1."""
    ring = ring_with_interfaces(400, phi1, phi2)
    states = [s for s in find_midgap(midgap_spectrum(ring)) if s.interface_cut == 1]
    assert len(states) == 2
    return ring, states


@settings(max_examples=6, deadline=None)
@given(phi1=PHI1, phi2=PHI2, theta=st.floats(min_value=0.0, max_value=180.0))
def test_trapped_light_is_the_circular_midgap_polarization(phi1, phi2, theta):
    """After 401 steps from x0 = 1 the light at site 0 is circular in the primed frame.

    Both midgap states bound to cut 1 read S3 = 1 at site 0, and so does the
    walked light, whatever QWP input: over 600 random draws and a 3 x 3 grid
    of the box (inputs every 0.25 deg) |S3/S0 - 1| was at most 1.84e-5;
    5e-5 is allowed.
    """
    ring, states = states_at_first_cut(phi1, phi2)
    for state in states:
        assert abs(site_polarization(state, ring, 0)[2] - 1) <= 1e-12
    lattice = segment_for(1, 401)
    profile = make_coin_profile("interface", lattice, phi1=phi1, phi2=phi2)
    final = evolve(prepare_input(1, [("qwp", theta)], lattice), profile, 401)
    b = measure_bases(final, 0, Frame.PRIMED, profile)
    assert abs((b.i_r - b.i_l) / (b.i_h + b.i_v) - 1) <= 5e-5


# both protected gaps at least 0.05, and the two walls of the N = 400 ring
# (200 sites apart) at least 150 >= 30 xi apart, so their states do not hybridize
OPEN_ANGLE = st.floats(min_value=-np.pi, max_value=np.pi, exclude_min=True, exclude_max=True)
BOUND_ANGLES = st.tuples(OPEN_ANGLE, OPEN_ANGLE).filter(
    lambda a: min(protected_gaps(*a)) >= 0.05 and 30 * decay_length(*a) <= 150)


@settings(max_examples=30, deadline=None)
@given(angles=BOUND_ANGLES)
def test_midgap_circular_sign_is_the_bulk_winding(angles):
    """The primed S3 at site 0 of both states bound to cut 1 is 1 - 2 nu, over the whole torus.

    nu = (1 - w_alpha + w_beta) / 2 = 1 - w_gamma of ``winding_numbers``: the
    wall's states carry the chirality that the bulk topology on either side
    of it fixes (bulk-boundary correspondence; Kitagawa, Rudner, Berg and
    Demler, PRA 82, 033429 (2010); Asboth and Obuse, PRB 88, 121406(R)
    (2013)).  Measured over 150 random pairs (82 read +1, 68 read -1): at
    most 2.2e-16 from 1 - 2 nu.
    """
    phi1, phi2 = angles
    w_alpha, w_beta, _ = winding_numbers(phi1, phi2, 256).windings[0]
    nu = (1 - w_alpha + w_beta) // 2
    ring, states = states_at_first_cut(phi1, phi2)
    for state in states:
        assert abs(site_polarization(state, ring, 0)[2] - (1 - 2 * nu)) <= 1e-12


@settings(max_examples=6, deadline=None)
@given(phi1=PHI1, phi2=PHI2)
def test_trapped_intensity_is_the_midgap_projection(phi1, phi2):
    """The long-time bond-pair scan tends to the projection onto the bound states.

    With A = sum_s lambda_s^t s(0, 1) s(1)^dag over the two states bound to
    cut 1, light c injected at site 1 leaves c^dag A^dag A c on the bond
    (0, 1) after t steps, up to a transient that falls faster than 1/t.
    Over 600 random draws and a 3 x 3 grid of the box, on the 180-angle QWP
    grid, |delta| t was at most 0.40 at t = 400 and 0.27 at t = 1000 (the
    curve ranges over 0.43 to 0.55); 0.6 is allowed.
    """
    _, states = states_at_first_cut(phi1, phi2)
    grid = np.arange(0.0, 180.0, 1.0)
    coins = waveplate("qwp", grid)[:, :, 0]
    for t in (400, 1000):
        a = sum(s.eigenvalue ** t * np.outer(s.amplitudes[[0, 1]].ravel(), s.amplitudes[1].conj())
                for s in states)
        expected = np.einsum("ka,ab,kb->k", coins.conj(), a.conj().T @ a, coins).real
        profile = make_coin_profile("interface", segment_for(1, t), phi1=phi1, phi2=phi2)
        curve = long_time_extrapolation(profile, t, 0, grid)
        assert np.abs(curve.intensities - expected).max() * t <= 0.6


QUARTER = st.floats(min_value=0.0, max_value=np.pi / 2, exclude_min=True, exclude_max=True)


def bits(values):
    """int64 view of a float or complex array: equal views mean equal bit patterns."""
    return np.ascontiguousarray(values).view(np.int64)


def jittered(profile, strength, seed):
    """The profile with every angle moved by up to ``strength``; cuts and phi1, phi2 stay."""
    noise = np.random.default_rng(seed).uniform(-strength, strength, profile.angles.size)
    return replace(profile, angles=profile.angles + noise)


def window_width(re_mu, bound):
    """How many of the ascending ``re_mu`` the window rule keeps: every one below
    ``bound``, then the next ones until the gap to the following one is at least 1e-2."""
    w = int(np.searchsorted(re_mu, bound))
    while 0 < w < re_mu.size and re_mu[w] - re_mu[w - 1] < 1e-2:
        w += 1
    return w


def interface_window_case(angles, half, strength, seed):
    """(ring, tol passed, tol in force) of the midgap-window properties.

    Clean interface rings use the default tolerance, 1e-4 of the gap at
    +-i (None where it is closed); jittered ones move every angle by up to
    ``strength`` times that gap and pass the default tolerance explicitly.
    """
    profile, tol = ring_with_interfaces(2 * half, *angles), None
    gap = protected_gaps(*angles)[1]
    if strength is not None and gap > 0:
        profile, tol = jittered(profile, strength * gap, seed), 1e-4 * gap
    return profile, tol, 1e-4 * gap if gap > 0 else None


WINDOW_CASES = st.tuples(
    st.tuples(QUARTER, QUARTER), st.integers(min_value=6, max_value=200),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
    st.integers(min_value=0, max_value=2**32 - 1))


@settings(max_examples=40, deadline=None)
@example(case=((0.9, 0.7), 200, None, 0))
@example(case=((0.8, 0.75), 100, None, 0))
@example(case=((0.8, 0.75), 6, 0.9, 1))
@given(case=WINDOW_CASES)
def test_midgap_window_is_the_full_solve_restricted(case):
    """``midgap_spectrum`` returns the bottom columns of ``full_spectrum``.

    The window keeps exactly as many columns as the window rule gives on the
    full spectrum, at the bound -1 + 2 tol + 1e-9; their eigenvalues agree
    within EIGENVALUE_TOL and their eigenspaces within PROJECTOR_TOL
    (``helpers.assert_same_eigenspaces``).  ``find_midgap`` finds the same
    states in both (``helpers.assert_same_states``).  Rings as in
    ``interface_window_case``: N = 12..400, either residue mod 4.
    """
    profile, tol, in_force = interface_window_case(*case)
    full, window = full_spectrum(profile), midgap_spectrum(profile, tol)
    n, w = profile.lattice.size, window.eigenvalues.size // 2
    re_mu = np.sort((full.eigenvalues[:n] ** 2).real)  # lambda = +sqrt(mu) come first
    assert w == (window_width(re_mu, -1 + 2 * in_force + 1e-9) if in_force else 0)
    cols = np.r_[0:w, n:n + w]  # branch-major: +sqrt(mu) columns, then -sqrt(mu)
    assert_same_eigenspaces(window.eigenvalues, window.eigenvectors,
                            full.eigenvalues[cols], full.eigenvectors[:, cols])
    assert_same_states(find_midgap(window, tol), find_midgap(full, tol))


@settings(max_examples=40, deadline=None)
@example(case=((0.7, 0.7 + 1e-3), 100, None, 0))  # a gap at +-i about to close
@example(case=((0.908, 0.439), 23, None, 0))      # N = 2 mod 4: hybridized interfaces
@example(case=((1.29, 0.17), 20, 0.9, 5))
@given(case=WINDOW_CASES)
def test_sector_inertia_counts_are_the_dense_counts(case):
    """Each sector's inertia count is the number of its dense ``eigh`` values below a bound.

    At the window bound -1 + 2 tol + 1e-9 and at the grown bound, the
    largest Re mu the window keeps plus 1e-2, on the rings of
    ``interface_window_case``.  The counts are per sector, so the property
    does not depend on how the two Re mu = -1 of the interface states split
    between the sectors.
    """
    profile, _, in_force = interface_window_case(*case)
    assume(in_force is not None)
    _, diag, coupling = midgap._sector_tridiagonals(profile)
    values, _ = midgap._dense_sectors(diag, coupling)
    merged = np.sort(values.ravel())
    below = -1 + 2 * in_force + 1e-9
    w = window_width(merged, below)
    grown = merged[w - 1] + 1e-2 if w else below
    for bound in (below, grown):
        for d, c, v in zip(diag.tolist(), coupling.tolist(), values):
            assert midgap._count_below(d, c, bound) == int((v < bound).sum())
    assert sum(midgap._count_below(d, c, grown)
               for d, c in zip(diag.tolist(), coupling.tolist())) == w


@settings(max_examples=30, deadline=None)
@given(data=st.data(), phi1=st.floats(min_value=0.9, max_value=1.45),
       phi2=st.floats(min_value=0.05, max_value=0.5),
       strength=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_anomaly_survives_chiral_disorder(data, phi1, phi2, strength, seed):
    """Site disorder keeps chiral symmetry and SUSY, so the anomaly stays -1.

    Every angle moves by up to ``strength`` times the clean gap at +-i; the
    ring keeps its clean tolerance 1e-4 of that gap.  Disorder lets the two
    interfaces hybridize across the ring: over 400 random rings with
    N = 40..200 the splitting of the +-i states stayed below 0.03 of the
    tolerance where N >= 25 xi and reached 7.7 times it where N < 15 xi
    (xi the clean ``decay_length``), so N >= 30 xi.  N is a multiple of 4: at
    N = 2 mod 4 even the clean interfaces hybridize (N = 46 at phi1 = 0.908,
    phi2 = 0.439 splits them by 3.7e-4, N = 44 and 48 by 0).
    """
    xi = decay_length(phi1, phi2)
    n = 4 * data.draw(st.integers(min_value=max(10, int(np.ceil(30 * xi / 4))), max_value=50))
    gap = protected_gaps(phi1, phi2)[1]
    profile = jittered(ring_with_interfaces(n, phi1, phi2), strength * gap, seed)
    states = find_midgap(midgap_spectrum(profile))
    assert len(states) == 4
    for state in states:
        assert abs(anomaly_expectation(state, profile) + 1.0) <= 1e-10


@settings(max_examples=60, deadline=None)
@example(cells=40, low=-1.0, seed=34)  # where x * x and pow(x, 2) round apart
@given(cells=st.integers(min_value=2, max_value=40), low=st.floats(min_value=-30, max_value=-1),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_stokes_readout_is_the_scalar_formula(cells, low, seed):
    """Site polarizations equal the scalar formula bit for bit; the sums within 1e-15.

    Any angles on an explicit ring; amplitude magnitudes log-uniform in
    [10**low, 1], low down to -30, before normalization, and about a quarter
    of the sites exactly zero, so occupied sites and empty ones
    (S0 <= 1e-10) both occur.  The empty-site error names the first empty
    site of a random order.
    """
    n = 2 * cells
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-np.pi, np.pi, n)
    profile = make_coin_profile("explicit", Lattice(n, Topology.RING), angles=angles)
    amps = 10.0 ** rng.uniform(low, 0, (n, 2)) * np.exp(2j * np.pi * rng.random((n, 2)))
    amps[rng.random(n) < 0.25] = 0
    assume(np.linalg.norm(amps) > 0)
    amps /= np.linalg.norm(amps)
    primed = to_frame(WalkerState(amps, profile.lattice), profile, Frame.PRIMED).amplitudes
    oracle = np.array([stokes_oracle(h, v) for h, v in primed])

    occupied = np.flatnonzero(oracle[:, 0] > 1e-10)
    np.testing.assert_array_equal(
        bits(np.array(site_polarizations(amps, profile, occupied.tolist()))),
        bits(oracle[occupied, 1:] / oracle[occupied, :1]))
    order = rng.permutation(n).tolist()
    empty = [x for x in order if oracle[x, 0] <= 1e-10]
    if empty:
        with pytest.raises(UnoccupiedSiteError, match=rf"^site {empty[0]} unoccupied$"):
            site_polarizations(amps, profile, order)

    signs = np.where(np.arange(n) % 2 == 1, 1.0, -1.0)
    assert abs(coin_y_expectation(amps, profile) - oracle[:, 3].sum()) <= 1e-15
    assert abs(cell_z_expectation(amps, profile) - (signs * oracle[:, 0]).sum()) <= 1e-15
    assert abs(anomaly_expectation(amps, profile, registration="global")
               - (signs * oracle[:, 3]).sum()) <= 1e-15
