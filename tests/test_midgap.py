import numpy as np
import pytest

from susyqw import (Frame, Lattice, ProfileError, SpectrumResult, Topology,
                    UnoccupiedSiteError, anomaly_expectation, band_structure,
                    cell_z_expectation, coin_y_expectation, decay_length, find_midgap,
                    full_spectrum, make_coin_profile, one_step_matrix, protected_gaps,
                    ring_with_interfaces, site_polarization)

from helpers import ring_bloch_state


@pytest.fixture(scope="module")
def interface_ring():
    profile = ring_with_interfaces(40, 1.29, 0.17)
    spectrum = full_spectrum(profile)
    return profile, spectrum, find_midgap(spectrum)


def test_ring_profile_has_two_interchange_points():
    prof = ring_with_interfaces(12, 1.29, 0.17)
    angles = prof.angles
    flips = sum(1 for x in range(12)
                if (angles[x] == angles[(x + 1) % 12]))
    assert flips == 2  # exactly two bonds carry equal adjacent angles
    assert prof.cuts == (1, 7)
    assert prof.angle_at(0) == prof.angle_at(1) == 1.29


def test_ring_profile_antipodal_at_40():
    prof = ring_with_interfaces(40, 1.29, 0.17)
    assert prof.cuts == (1, 21)  # separated by half the ring


def test_ring_profile_rejects_odd_or_small():
    with pytest.raises(ProfileError):
        ring_with_interfaces(13, 1.0, 0.5)
    with pytest.raises(ProfileError):
        ring_with_interfaces(8, 1.0, 0.5)


def test_equal_angles_profile_flagged_trivial():
    prof = ring_with_interfaces(12, 0.7, 0.7)
    assert prof.trivial


def test_shift_ring_spectrum_is_fourth_roots_twice():
    lat = Lattice(4, Topology.RING)
    prof = make_coin_profile("uniform", lat, phi=0.0)
    lam = np.sort_complex(full_spectrum(prof).eigenvalues)
    expected = np.sort_complex(np.tile(np.exp(2j * np.pi * np.arange(4) / 4), 2))
    np.testing.assert_allclose(lam, expected, atol=1e-12)


def test_spectrum_unit_circle_and_unitarity():
    prof = ring_with_interfaces(20, 1.29, 0.17)
    spec = full_spectrum(prof)
    assert np.abs(np.abs(spec.eigenvalues) - 1).max() < 1e-10
    v = spec.eigenvectors
    np.testing.assert_allclose(np.abs(np.linalg.norm(v, axis=0)), 1.0, atol=1e-12)


@pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8])
def test_spectrum_resolves_split_degeneracies(delta):
    # one perturbed coin splits the degenerate momentum pairs of a bulk ring
    # by about delta; the parity-block solve must still return eigenpairs
    lat = Lattice(40, Topology.RING)
    angles = make_coin_profile("bulk", lat, phi1=1.29, phi2=0.17).angles.copy()
    angles[5] += delta
    profile = make_coin_profile("explicit", lat, angles=angles)
    spec = full_spectrum(profile)
    residual = one_step_matrix(profile) @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
    assert np.linalg.norm(residual, axis=0).max() < 1e-12


def test_bulk_ring_is_gapped_at_imaginary_axis(interface_ring):
    lat = Lattice(40, Topology.RING)
    prof = make_coin_profile("bulk", lat, phi1=1.29, phi2=0.17)
    lam = full_spectrum(prof).eigenvalues
    dist = np.minimum(np.abs(lam - 1j), np.abs(lam + 1j))
    assert dist.min() > 0.05
    # consistent with the band gap: closest approach is 2 sin(gap/2)
    gap = protected_gaps(1.29, 0.17)[1]
    assert dist.min() >= 2 * np.sin(gap / 2) - 1e-9


def test_two_interface_ring_pins_four_states(interface_ring):
    _, spectrum, states = interface_ring
    dist = np.minimum(np.abs(spectrum.eigenvalues - 1j),
                      np.abs(spectrum.eigenvalues + 1j))
    assert (dist < 1e-6).sum() == 4
    assert len(states) == 4
    assert {s.center for s in states} == {0, 20}
    assert {s.interface_cut for s in states} == {1, 21}


def test_partner_states_share_center_and_decay():
    # the two sites of an interface bond carry equal probability: the center
    # is the first of them, not whichever one rounding favours
    states = find_midgap(full_spectrum(ring_with_interfaces(400, 1.29, 0.17)))
    plus, minus = states[:2], states[2:]
    assert [s.center for s in plus] == [s.center for s in minus] == [0, 200]
    for p, m in zip(plus, minus):
        assert p.decay_length == pytest.approx(m.decay_length, rel=1e-5)


@pytest.mark.parametrize("site", [0, 1])
def test_center_is_first_site_of_a_tied_bond(interface_ring, site):
    # rounding that favours either site of the bond (0, 1) leaves the center at 0
    profile, _, states = interface_ring
    amps = states[0].amplitudes.copy()
    amps[site] *= 1 + 1e-12
    amps /= np.linalg.norm(amps)
    spectrum = SpectrumResult(np.array([1j]), amps.reshape(-1, 1), profile)
    (state,) = find_midgap(spectrum)
    assert state.center == 0
    assert state.decay_length == pytest.approx(states[0].decay_length, rel=1e-9)


def test_midgap_count_invariant_under_doubling():
    for n in (40, 80):
        spec = full_spectrum(ring_with_interfaces(n, 1.29, 0.17))
        dist = np.minimum(np.abs(spec.eigenvalues - 1j), np.abs(spec.eigenvalues + 1j))
        assert (dist < 1e-6).sum() == 4


def test_finite_size_splitting_shrinks_with_size():
    # interfaces of equal type hybridize; their splitting must collapse fast
    def splitting(n):
        lat = Lattice(n, Topology.RING)
        prof = make_coin_profile("interface", lat, phi1=1.29, phi2=0.17,
                                 cuts=(1, n // 2))
        lam = full_spectrum(prof).eigenvalues
        dist = np.minimum(np.abs(lam - 1j), np.abs(lam + 1j))
        return np.sort(dist)[:4].max()

    assert splitting(40) > 10 * splitting(80)


def test_trivial_ring_has_no_midgap_states():
    spec = full_spectrum(ring_with_interfaces(40, 0.7, 0.7))
    assert find_midgap(spec) == []


def test_decay_lengths_follow_the_gap(interface_ring):
    _, _, states = interface_ring
    xi_large_gap = states[0].decay_length
    spec = full_spectrum(ring_with_interfaces(40, 1.29, 0.9))
    xi_small_gap = find_midgap(spec)[0].decay_length
    assert 0 < xi_large_gap < xi_small_gap
    assert all(s.fit_r2 > 0.99 for s in states)


def test_quarter_turn_coin_confines_a_state_to_its_bond():
    # at phi1 = pi/2 the state of the interface on (0, 1) lives on that bond alone
    profile = ring_with_interfaces(40, np.pi / 2, 0.5)
    states = find_midgap(full_spectrum(profile))
    assert len(states) == 4
    on_bond = [s for s in states if s.center == 0]
    assert len(on_bond) == 2
    assert all(s.decay_length == 0.0 for s in on_bond)
    # exp(-2 / xi) < 1e-16 per site: analytically the states are compact as well
    assert decay_length(np.pi / 2, 0.5) < 0.06
    for s in states:
        assert anomaly_expectation(s, profile) == pytest.approx(-1.0, abs=1e-9)


def test_analytic_decay_length_diverges_where_the_gap_at_i_closes():
    # sin phi1 = sin phi2 closes the gap at +-i: cos k = -1 has a real k
    for phi1, phi2 in ((0.7, 0.7), (0.3, np.pi - 0.3), (-1.2, -1.2)):
        assert decay_length(phi1, phi2) > 1e6


def test_midgap_anomaly_is_minus_one(interface_ring):
    profile, _, states = interface_ring
    for s in states:
        assert anomaly_expectation(s, profile) == pytest.approx(-1.0, abs=1e-3)


def test_global_registration_pairs_opposite_signs(interface_ring):
    # under one global unit-cell registration the anomaly operator is
    # traceless on each +-i eigenspace: the two interfaces report +-1
    profile, _, states = interface_ring
    values = sorted(anomaly_expectation(s, profile, registration="global")
                    for s in states)
    np.testing.assert_allclose(values, [-1, -1, 1, 1], atol=1e-6)
    assert abs(sum(values)) < 1e-6


def test_non_midgap_states_carry_no_anomaly(interface_ring):
    profile, spectrum, _ = interface_ring
    lam = spectrum.eigenvalues
    away = np.minimum.reduce([np.abs(lam - t) for t in (1, -1, 1j, -1j)]) > 1e-3
    for j in np.where(away)[0]:
        amps = spectrum.amplitudes_of(j)
        assert abs(anomaly_expectation(amps, profile)) < 1e-8
        assert abs(coin_y_expectation(amps, profile)) < 1e-8
        assert abs(cell_z_expectation(amps, profile)) < 1e-8


def test_anomaly_of_midgap_bulk_mixture_interpolates(interface_ring):
    profile, spectrum, states = interface_ring
    lam = spectrum.eigenvalues
    j_bulk = int(np.argmax(np.abs(lam.real)))  # far from +-i
    bulk = spectrum.amplitudes_of(j_bulk)
    mid = states[0].amplitudes
    for w in (0.25, 0.5, 0.75):
        mix = np.sqrt(w) * mid + np.sqrt(1 - w) * bulk
        mix /= np.linalg.norm(mix)
        val = anomaly_expectation(mix, profile, registration="global")
        assert val == pytest.approx(-w, abs=0.02)
        assert -1.0 <= val <= 0.0


def test_anomaly_requires_normalized_state(interface_ring):
    profile, _, states = interface_ring
    with pytest.raises(ValueError, match="normalized"):
        anomaly_expectation(states[0].amplitudes * 2.0, profile)


def test_midgap_polarization_alternates_with_parity(interface_ring):
    profile, _, states = interface_ring
    for s in states:
        probs = (np.abs(s.amplitudes) ** 2).sum(axis=1)
        occupied = np.where(probs > 1e-10)[0]
        s3 = {int(x): site_polarization(s, profile, int(x))[2] for x in occupied}
        signs = {x: np.sign(v) for x, v in s3.items()}
        ref = signs[min(signs)]
        for x, sign in signs.items():
            parity_match = (x - min(signs)) % 2 == 0
            assert sign == (ref if parity_match else -ref)
        assert all(abs(abs(v) - 1.0) < 1e-3 for v in s3.values())


def test_paper_interface_states_are_right_circular_on_even_sites(interface_ring):
    # the interface on the bond (0, 1): S3 = +1 on even sites, -1 on odd
    profile, _, states = interface_ring
    primary = [s for s in states if s.interface_cut == 1]
    assert len(primary) == 2
    for s in primary:
        assert site_polarization(s, profile, 0)[2] == pytest.approx(1.0, abs=1e-3)
        assert site_polarization(s, profile, 1)[2] == pytest.approx(-1.0, abs=1e-3)
        assert site_polarization(s, profile, 2)[2] == pytest.approx(1.0, abs=1e-3)


def test_bulk_bloch_state_is_linearly_polarized_sitewise():
    n_cells = 10
    p1, p2 = 1.29, 0.17
    lat = Lattice(2 * n_cells, Topology.RING)
    prof = make_coin_profile("bulk", lat, phi1=p1, phi2=p2)
    bands = band_structure(p1, p2, k_grid=np.array([2 * np.pi * 3 / n_cells]),
                           frame=Frame.LAB)
    amps = ring_bloch_state(bands.eigenvectors[0][:, 0], n_cells, 3)
    for x in range(2 * n_cells):
        s3 = site_polarization(amps, prof, x)[2]
        assert abs(s3) < 1e-8


def test_site_polarization_rejects_empty_site(interface_ring):
    profile, _, states = interface_ring
    far = (states[0].center + 20) % 40
    with pytest.raises(UnoccupiedSiteError):
        site_polarization(states[0], profile, far)


def test_full_spectrum_requires_ring():
    prof = make_coin_profile("bulk", Lattice(10, Topology.SEGMENT), phi1=1.0, phi2=0.2)
    with pytest.raises(ProfileError):
        full_spectrum(prof)


def test_full_spectrum_caps_ring_size():
    with pytest.raises(ProfileError, match="2N <= 4096"):
        full_spectrum(ring_with_interfaces(2050, 1.29, 0.17))


def test_find_midgap_rejects_unusable_tolerances():
    spectrum = full_spectrum(ring_with_interfaces(12, 1.29, 0.17))
    for tol in (float("inf"), float("nan"), 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            find_midgap(spectrum, tol)
    # tol >= 2 selects the whole spectrum; each canonical vector sits on one site
    with pytest.raises(ValueError, match="decay fit"):
        find_midgap(spectrum, 2.5)
