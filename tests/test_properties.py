"""Property tests of the walk kernel, the QWP scans, the ring spectrum and the bands.

The walk and scan tests draw coin angles from the gapped box phi1 in
[1.1, 1.4], phi2 in [0.1, 0.3], which stays clear of the gap closing at
phi1 = phi2; the spectrum tests draw any angles, gap closings included;
the band test draws any angles with both protected gaps open.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from susyqw import (Lattice, Topology, WalkerState, band_structure, bloch_operator,
                    evolve, full_spectrum, long_time_extrapolation, make_coin_profile,
                    one_step_matrix, prepare_input, protected_gaps, qwp_scan)

from helpers import bloch_oracle, multiset_distance

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


@settings(max_examples=50, deadline=None)
@given(data=st.data(), cells=st.integers(min_value=2, max_value=30))
def test_parity_block_spectrum_matches_dense_eig(data, cells):
    """The parity-block solve gives the spectrum of the dense U and its eigenvectors."""
    angles = data.draw(st.lists(ANGLE, min_size=2 * cells, max_size=2 * cells))
    profile = make_coin_profile("explicit", Lattice(2 * cells, Topology.RING), angles=angles)
    spectrum = full_spectrum(profile)
    umat = one_step_matrix(profile)
    lam, psi = spectrum.eigenvalues, spectrum.eigenvectors
    assert multiset_distance(lam, np.linalg.eig(umat).eigenvalues) <= 1e-9
    assert np.linalg.norm(umat @ psi - psi * lam, axis=0).max() <= 1e-12
    np.testing.assert_allclose(np.linalg.norm(psi, axis=0), 1.0, rtol=0, atol=1e-12)


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
