"""Property tests of the walk kernel, the QWP scans, the ring spectrum and the bands.

The walk, scan and decay-length tests draw coin angles from the gapped box
phi1 in [1.1, 1.4], phi2 in [0.1, 0.3], which stays clear of the gap closing
at phi1 = phi2; the spectrum, ring-symmetry and partner-solve tests draw any
angles, gap closings included; the quadrant and anomaly tests draw angles
with both protected gaps open.
"""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from susyqw import (Frame, Lattice, Topology, WalkerState, anomaly_expectation, band_structure,
                    bloch_operator, decay_length, evolve, find_midgap, full_spectrum,
                    long_time_extrapolation, make_coin_profile, one_step_matrix,
                    prepare_input, protected_gaps, quadruple_closure_distance, qwp_scan,
                    ring_with_interfaces, segment_for)

from helpers import SY, bloch_oracle, multiset_distance, primed_frame_rotation

PHI1 = st.floats(min_value=1.1, max_value=1.4)
PHI2 = st.floats(min_value=0.1, max_value=0.3)
ANGLE = st.floats(min_value=-np.pi, max_value=np.pi)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["interface", "bulk", "uniform"]),
       phi1=PHI1, phi2=PHI2, steps=st.integers(min_value=0, max_value=30),
       x0=st.integers(min_value=-3, max_value=3), cell=st.booleans(),
       angles=st.lists(st.floats(min_value=0.0, max_value=180.0), min_size=1, max_size=5))
def test_linear_scan_matches_per_angle_evolution(data, kind, phi1, phi2, steps, x0,
                                                 cell, angles):
    """Two basis evolutions and a 2x2 form give every per-angle probe intensity."""
    # wide enough for the walk from x0 and, for the interface, the bond (0, 1)
    lattice = Lattice(2 * steps + 12, Topology.SEGMENT, origin=-steps - 5)
    if kind == "uniform":
        profile = make_coin_profile("uniform", lattice, phi=phi1)
    else:
        profile = make_coin_profile(kind, lattice, phi1=phi1, phi2=phi2)
    probe = data.draw(st.integers(min_value=x0 - steps - 1, max_value=x0 + steps))
    scan = long_time_extrapolation if cell else qwp_scan
    curve = scan(profile, steps, probe, angles_deg=angles, x0=x0)

    expected = []
    for theta in angles:
        final = evolve(prepare_input(x0, [("qwp", theta)], lattice), profile, steps)
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
    """A recorded segment walk copies every step; no state aliases the live buffer."""
    lattice = segment_for(1, steps)
    if kind == "uniform":
        profile = make_coin_profile("uniform", lattice, phi=phi1)
    else:
        profile = make_coin_profile(kind, lattice, phi1=phi1, phi2=phi2)
    start = prepare_input(1, [("qwp", plate)], lattice)
    trajectory = evolve(start, profile, steps, record=True)
    assert trajectory[0] is start and len(trajectory) == steps + 1
    assert_recorded_steps_are_single_step_copies(trajectory, profile)


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

    trajectory = evolve(WalkerState(amps, ring), profile, steps, record=True)
    final = trajectory[-1]
    expected = np.linalg.matrix_power(one_step_matrix(profile), steps) @ amps.ravel()
    np.testing.assert_allclose(final.amplitudes.ravel(), expected, rtol=0, atol=1e-12)
    assert abs(final.norm() - 1.0) <= 1e-12
    assert [s.t for s in trajectory] == list(range(steps + 1))
    np.testing.assert_array_equal(evolve(WalkerState(amps, ring), profile, steps).amplitudes,
                                  final.amplitudes)
    assert_recorded_steps_are_single_step_copies(trajectory, profile)


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


# an angle pair that is often on a gap closing: phi2 = phi1 or phi2 = -phi1
CLOSING_PRONE = ANGLE.flatmap(lambda a: st.tuples(st.just(a),
                                                  st.one_of(st.just(a), st.just(-a), ANGLE)))


@settings(max_examples=60, deadline=None)
@example(angles=(0.7, 0.7), ks=[], frame=Frame.PRIMED)
@example(angles=(0.7, 0.7), ks=[0.0, 2 * np.pi], frame=Frame.LAB)
@given(angles=CLOSING_PRONE, frame=st.sampled_from(list(Frame)),
       ks=st.lists(st.floats(min_value=0.0, max_value=2 * np.pi), max_size=12))
def test_partner_solve_matches_the_bloch_eig(angles, frame, ks):
    """The lifted 2x2 partner solve is an eigendecomposition of u(k), at closings too.

    Every k grid holds k = pi, where phi1 = phi2 closes the gap at lambda = +-i
    (the partner walk is -1 there); phi1 = -phi2 closes the gap at +-1 at k = 0.
    """
    phi1, phi2 = angles
    k_grid = np.sort([np.pi, *ks])
    bands = band_structure(phi1, phi2, k_grid=k_grid, frame=frame)
    lams, vecs = bands.eigenvalues, bands.eigenvectors
    for k, lam, psi in zip(k_grid, lams, vecs):
        ref = np.linalg.eig(bloch_operator(k, phi1, phi2, frame).matrix).eigenvalues
        assert multiset_distance(lam, ref) <= 1e-12
        assert np.linalg.matrix_rank(psi) == 4
    u = bloch_oracle(k_grid, phi1, phi2, primed=frame is Frame.PRIMED)
    residual = u @ vecs - vecs * lams[:, None, :]
    assert np.linalg.norm(residual, axis=1).max() <= 1e-12


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
