import re
import tracemalloc

import numpy as np
import pytest

from susyqw import (Frame, Lattice, ProfileError, SpectrumResult, Topology,
                    UnoccupiedSiteError, WalkerState, anomaly_expectation, band_structure,
                    cell_z_expectation, coin_y_expectation, decay_length, find_midgap,
                    full_spectrum, make_coin_profile, midgap_spectrum, one_step_matrix,
                    protected_gaps, ring_with_interfaces, site_polarization,
                    site_polarizations, to_frame)

from susyqw import midgap
from susyqw.midgap import _dense_sectors, _sector_tridiagonals

from helpers import (SX, assert_same_eigenspaces, assert_same_states, dense_ring_oracle,
                     primed_frame_rotation, record_calls, ring_bloch_state)


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


def real_gauge_odd_block(matrix, n_sites):
    """The odd-site block of a lab-frame 2N x 2N matrix in the real gauge (h, -i v)."""
    gauge = np.tile([1.0, -1j], n_sites)
    real = gauge[:, None] * matrix * gauge.conj()[None, :]
    odd = np.flatnonzero(np.arange(2 * n_sites) // 2 % 2 == 1)
    assert np.abs(real.imag).max() <= 1e-14
    return real.real[np.ix_(odd, odd)]


@pytest.mark.parametrize("n_sites, seed", [(2, 4), (4, 0), (6, 5), (12, 1), (30, 2), (64, 3)])
def test_chiral_sectors_split_the_primed_parity_block(n_sites, seed):
    """sigma_x M' sigma_x = M'^T for M' = T M T^T, so two sector eigh give Re mu.

    M is the odd block of U^2 and T the primed-frame half coin on the odd
    sites, both built from the dense oracles in the real gauge.  N = 2 folds
    both couplings into the diagonal; N = 6 is the smallest ring whose odd
    sites each have two distinct odd neighbours.
    """
    angles = np.random.default_rng(seed).uniform(-np.pi, np.pi, n_sites)
    u = dense_ring_oracle(angles)
    m = real_gauge_odd_block(u @ u, n_sites)
    t = real_gauge_odd_block(primed_frame_rotation(angles), n_sites)
    m_primed = t @ m @ t.T
    gamma = np.kron(np.eye(n_sites // 2), SX.real)
    assert np.abs(gamma @ m_primed @ gamma - m_primed.T).max() <= 1e-13

    profile = make_coin_profile("explicit", Lattice(n_sites, Topology.RING), angles=angles)
    values, _ = _dense_sectors(*_sector_tridiagonals(profile)[1:])
    np.testing.assert_allclose(np.sort(values.ravel()), np.linalg.eigvalsh((m + m.T) / 2),
                               rtol=0, atol=1e-12)


def hopped_sector_entries(profile):
    """Each sector's diagonal and coupling read by pushing every single basis
    vector through the two parity hops and contracting with the frames."""
    frames = _sector_tridiagonals(profile)[0]
    odd, even = profile.angles[1::2], profile.angles[0::2]
    half = odd.size
    sites = np.arange(half)
    nxt = (sites + 1) % half
    probes = np.zeros((half, 2, 2, half))
    probes[sites, :, :, sites] = frames
    out = midgap._parity_hop(midgap._parity_hop(probes.reshape(2 * half, -1), odd, 1, 0),
                             even, 0, -1)
    seen = np.einsum("jcs,jcsp->sjp", frames, out.reshape(probes.shape))
    return seen[:, sites, sites], (seen[:, nxt, sites] + seen[:, sites, nxt]) / 2


@pytest.mark.parametrize("seed", range(8))
def test_sector_entries_are_those_of_the_parity_hops(seed, monkeypatch):
    """Written from the coins, the entries equal the hopped ones exactly, and no hop runs."""
    rng = np.random.default_rng(seed)
    profiles = []
    for n in (2 * rng.integers(3, 120, 10)).tolist():
        profiles.append(make_coin_profile("explicit", Lattice(n, Topology.RING),
                                          angles=rng.uniform(-7, 7, n)))
        profiles.append(ring_with_interfaces(max(n, 12), *rng.uniform(-3.2, 3.2, 2)))
    expected = [hopped_sector_entries(profile) for profile in profiles]
    hops = record_calls(monkeypatch, midgap, "_parity_hop")
    for profile, hopped in zip(profiles, expected):
        _, diag, coupling = _sector_tridiagonals(profile)
        assert np.array_equal(diag, hopped[0]) and np.array_equal(coupling, hopped[1])
    assert not hops


def test_midgap_window_keeps_merged_groups_whole():
    """A window edge inside a group that the full solve merges moves past the group.

    One perturbed coin splits each degenerate pair of a bulk ring by about
    1e-7 in Re mu; eigh mixes the two pairs, so the full solve merges them.
    """
    lat = Lattice(40, Topology.RING)
    angles = make_coin_profile("bulk", lat, phi1=1.29, phi2=0.17).angles.copy()
    angles[5] += 1e-6
    profile = make_coin_profile("explicit", lat, angles=angles)
    full = full_spectrum(profile)
    re_mu = np.sort((full.eigenvalues[:40] ** 2).real)
    split = int(np.flatnonzero((np.diff(re_mu) > 1e-8) & (np.diff(re_mu) < 1e-6))[0])
    # the window bound -1 + 2 tol + 1e-9 falls between the two split pairs
    tol = (re_mu[split] + re_mu[split + 1]) / 4 + 0.5 - 5e-10
    window = midgap_spectrum(profile, tol)
    w = window.eigenvalues.size // 2
    assert w == split + 3
    cols = np.r_[0:w, 40:40 + w]
    assert_same_eigenspaces(window.eigenvalues, window.eigenvectors,
                            full.eigenvalues[cols], full.eigenvectors[:, cols])


@pytest.mark.parametrize("n, phi1, phi2", [(400, 1.25, 0.2), (46, 0.908, 0.439), (40, 0.8, 0.75)])
def test_midgap_spectrum_runs_no_sector_sized_eigh(monkeypatch, n, phi1, phi2):
    """Inertia counts certify these windows: only k x k Rayleigh-Ritz blocks reach eigh."""
    calls = record_calls(monkeypatch, np.linalg, "eigh")
    profile = ring_with_interfaces(n, phi1, phi2)
    assert midgap_spectrum(profile).eigenvalues.size == 4
    assert calls and all(np.shape(args[0])[-1] < n // 2 for args in calls)


def test_midgap_window_the_counts_cannot_certify_takes_the_dense_eigh(monkeypatch):
    """A window whose edge the inertia counts cannot certify is the dense solve's.

    Without angles there is no band bound on the tolerance: tol = 0.5 keeps
    every Re mu below about 0, most of the spectrum, and more Re mu lie
    within the iteration's contraction bound above that, so the counts
    differ and send the sectors to one ``eigh`` of their dense blocks.
    """
    ring = ring_with_interfaces(40, 1.29, 0.17)
    explicit = make_coin_profile("explicit", ring.lattice, angles=ring.angles)
    calls = record_calls(monkeypatch, np.linalg, "eigh")
    window = midgap_spectrum(explicit, 0.5)
    assert [np.shape(args[0]) for args in calls] == [(2, 20, 20)]
    full = full_spectrum(explicit)
    w = window.eigenvalues.size // 2
    assert 8 < w < 40
    cols = np.r_[0:w, 40:40 + w]
    assert_same_eigenspaces(window.eigenvalues, window.eigenvectors,
                            full.eigenvalues[cols], full.eigenvectors[:, cols])


@pytest.mark.parametrize("n", [40, 400])
def test_full_spectrum_is_one_dense_eigh(monkeypatch, n):
    """The whole spectrum is the dense reference: one ``eigh`` of both sector blocks."""
    calls = record_calls(monkeypatch, np.linalg, "eigh")
    windows = record_calls(monkeypatch, midgap, "_sector_windows")
    assert full_spectrum(ring_with_interfaces(n, 1.29, 0.17)).eigenvalues.size == 2 * n
    assert [np.shape(args[0]) for args in calls] == [(2, n // 2, n // 2)]
    assert not windows


def test_closed_gap_window_is_empty_and_solves_nothing(monkeypatch):
    """On a closed gap the default window is empty: zero counts, no ``eigh``."""
    calls = record_calls(monkeypatch, np.linalg, "eigh")
    spectrum = midgap_spectrum(ring_with_interfaces(40, 1.0, 1.0))
    assert not calls
    assert spectrum.eigenvalues.shape == (0,) and spectrum.eigenvectors.shape == (80, 0)
    for array in (spectrum.eigenvalues, spectrum.eigenvectors):
        assert not array.flags.writeable
    assert find_midgap(spectrum) == []


def test_certified_counts_fix_the_window_width(monkeypatch):
    """The inertia counts, not the iterated Re mu, decide which columns the window keeps.

    A Ritz value that rounds to just above the window bound must not drop a
    certified column: moved well above it here, all four states stay.
    """
    lowest = midgap._lowest_eigenpairs

    def raised(*args):
        values, vectors = lowest(*args)
        return [v + 1 for v in values], vectors

    monkeypatch.setattr(midgap, "_lowest_eigenpairs", raised)
    window = midgap_spectrum(ring_with_interfaces(40, 1.25, 0.2))
    assert window.eigenvalues.size == 4
    assert len(find_midgap(window)) == 4


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8, 16])
def test_whole_spectrum_window_iterates_on_small_rings(monkeypatch, n_sites):
    """A window of the whole spectrum is certified and iterates; at one or two
    odd sites both neighbours of a site coincide."""
    angles = np.random.default_rng(n_sites).uniform(-np.pi, np.pi, n_sites)
    profile = make_coin_profile("explicit", Lattice(n_sites, Topology.RING), angles=angles)
    full = full_spectrum(profile)
    dense = record_calls(monkeypatch, midgap, "_dense_sectors")
    window = midgap_spectrum(profile, 1.9)  # Re mu < -1 + 3.8: all of them
    assert window.eigenvalues.size == 2 * n_sites and not dense
    assert_same_eigenspaces(window.eigenvalues, window.eigenvectors,
                            full.eigenvalues, full.eigenvectors)


def test_midgap_spectrum_memory_is_linear_in_the_ring():
    """At N = 2048 the window solve peaks near 0.9 MB; two dense sector blocks alone are 16 MB.

    Measured in its own untimed run: tracemalloc slows the float loops.
    """
    profile = ring_with_interfaces(2048, 1.25, 0.2)
    tracemalloc.start()
    try:
        spectrum = midgap_spectrum(profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectrum.eigenvalues.size == 4
    assert peak <= 4e6, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("solve", [full_spectrum, midgap_spectrum], ids=["full", "window"])
def test_spectrum_results_are_read_only(solve):
    spectrum = solve(ring_with_interfaces(40, 1.29, 0.17))
    for array in (spectrum.eigenvalues, spectrum.eigenvectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    state = find_midgap(spectrum)[0]
    with pytest.raises(ValueError, match="read-only"):
        state.amplitudes[0, 0] = 0


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


def test_four_interface_ring_binds_one_state_per_interface():
    # the anomaly is -1 at two interfaces and +1 at the other two under the
    # global registration, so each +-i cluster splits by position weight
    prof = make_coin_profile("interface", Lattice(160, Topology.RING), phi1=1.29, phi2=0.17,
                             cuts=(1, 41, 81, 121))
    spectrum = full_spectrum(prof)
    states = find_midgap(spectrum, 1e-6)
    assert len(states) == 8
    for lam, group in ((1j, states[:4]), (-1j, states[4:])):
        assert all(abs(s.eigenvalue - lam) < 1e-6 for s in group)
        assert [s.center for s in group] == [0, 40, 80, 120]
        assert [s.interface_cut for s in group] == [1, 41, 81, 121]
        for s in group:
            assert anomaly_expectation(s, prof) == pytest.approx(-1.0, abs=1e-9)
        glob = [anomaly_expectation(s, prof, registration="global") for s in group]
        np.testing.assert_allclose(glob, [-1, 1, -1, 1], atol=1e-9)
    window = find_midgap(midgap_spectrum(prof, 1e-6), 1e-6)
    assert len(window) == 8
    assert_same_states(window, states)
    # a random unitary mix inside each cluster canonicalizes to the same states
    rng = np.random.default_rng(0)
    mixed = spectrum.eigenvectors.copy()
    for lam in (1j, -1j):
        sel = np.flatnonzero(np.abs(spectrum.eigenvalues - lam) < 1e-6)
        unitary, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        mixed[:, sel] = mixed[:, sel] @ unitary
    remixed = find_midgap(SpectrumResult(spectrum.eigenvalues, mixed, prof), 1e-6)
    assert [(s.center, s.interface_cut) for s in remixed] == \
        [(s.center, s.interface_cut) for s in states]
    for s, r in zip(states, remixed):
        assert abs(np.vdot(s.amplitudes, r.amplitudes)) == pytest.approx(1.0, abs=1e-9)


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


def interface_splitting(n, phi1, phi2):
    """Largest distance to +-i of the four eigenvalues nearest it, on a ring cut at (1, n/2)."""
    prof = make_coin_profile("interface", Lattice(n, Topology.RING), phi1=phi1, phi2=phi2,
                             cuts=(1, n // 2))
    lam = full_spectrum(prof).eigenvalues
    return np.sort(np.minimum(np.abs(lam - 1j), np.abs(lam + 1j)))[:4].max()


def test_finite_size_splitting_shrinks_with_size():
    # interfaces of equal type hybridize; their splitting must collapse fast
    assert interface_splitting(40, 1.29, 0.17) > 10 * interface_splitting(80, 1.29, 0.17)


@pytest.mark.parametrize("phi1, phi2", [(0.908, 0.439), (0.8, 0.5), (1.0, 0.6)])
def test_finite_size_splitting_decays_over_twice_the_decay_length(phi1, phi2):
    """Across the ring the interface states overlap as exp(-N / (2 xi)).

    On N = 2 (mod 4) rings with the cuts (1, N/2), the splitting of the four
    states nearest +-i falls with log-slope -1 / (2 xi) in N, xi the
    analytic ``decay_length``; the fit runs from N = 22 while the splitting
    stays above 1e-12 (xi = 3.26, 5.26, 3.41 here).
    """
    sizes, splits = [], []
    for n in range(22, 1000, 4):
        split = interface_splitting(n, phi1, phi2)
        if split <= 1e-12:
            break
        sizes.append(n)
        splits.append(split)
    assert len(sizes) >= 10
    slope = np.polyfit(sizes, np.log(splits), 1)[0]
    assert 0.98 <= slope * -2 * decay_length(phi1, phi2) <= 1.02


@pytest.mark.parametrize("profile", [
    lambda: ring_with_interfaces(40, 0.7, 0.7),
    lambda: ring_with_interfaces(40, 0.7, np.pi - 0.7),
    lambda: make_coin_profile("bulk", Lattice(40, Topology.RING), phi1=0.7, phi2=0.7),
    lambda: make_coin_profile("uniform", Lattice(40, Topology.RING), phi=0.7),
], ids=["interface-equal", "interface-supplementary", "bulk-equal", "uniform"])
def test_trivial_ring_has_no_midgap_states(profile):
    """Where sin phi1 = sin phi2 the gap at +-i is closed and binds no midgap state."""
    p = profile()
    assert protected_gaps(p.phi1, p.phi2)[1] == 0.0
    assert find_midgap(full_spectrum(p)) == []
    window = midgap_spectrum(p)
    assert window.eigenvalues.size == 0 and window.eigenvectors.shape == (80, 0)


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


def test_site_polarizations_check_indices_before_occupancy():
    seg = make_coin_profile("bulk", Lattice(10, Topology.SEGMENT, origin=-5), phi1=1.0, phi2=0.2)
    amps = np.zeros((10, 2), dtype=complex)
    amps[3] = (1, 0)  # only site -2 occupied
    with pytest.raises(ProfileError, match="site 99 outside"):
        site_polarizations(amps, seg, [-5, 99])
    with pytest.raises(UnoccupiedSiteError, match="site -5 unoccupied"):
        site_polarizations(amps, seg, [-2, -5, -4])


def test_full_spectrum_requires_ring():
    prof = make_coin_profile("bulk", Lattice(10, Topology.SEGMENT), phi1=1.0, phi2=0.2)
    with pytest.raises(ProfileError):
        full_spectrum(prof)


def test_full_spectrum_caps_ring_size():
    with pytest.raises(ProfileError, match="2N <= 4096"):
        full_spectrum(ring_with_interfaces(2050, 1.29, 0.17))


def test_find_midgap_rejects_unusable_tolerances():
    ring = ring_with_interfaces(12, 1.29, 0.17)
    spectrum = full_spectrum(ring)
    for tol in (float("inf"), float("nan"), 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            find_midgap(spectrum, tol)
    # the bulk bands come within 2 sin(gap / 2) = 0.5527 of +-i
    with pytest.raises(ValueError, match=r"tolerance 1\.0 reaches the bulk bands, 0\.552"):
        find_midgap(spectrum, 1.0)
    # without the angles there is no band bound: tol >= 2 selects the whole
    # spectrum, and each canonical vector sits on one site
    explicit = make_coin_profile("explicit", ring.lattice, angles=ring.angles)
    with pytest.raises(ValueError, match="decay fit"):
        find_midgap(full_spectrum(explicit), 2.5)


def test_uniform_ring_has_no_midgap_states():
    """A uniform profile is trivial: phi1 = phi2 = phi, and the gap at +-i is closed."""
    for ring in (make_coin_profile("uniform", Lattice(40, Topology.RING), phi=0.7),
                 ring_with_interfaces(40, 0.7, 0.7)):
        assert (ring.phi1, ring.phi2) == (0.7, 0.7)
        assert find_midgap(full_spectrum(ring)) == []
        window = midgap_spectrum(ring)
        assert window.eigenvalues.size == 0 and window.eigenvectors.shape == (80, 0)
        with pytest.raises(ValueError, match="reaches the bulk bands"):
            find_midgap(full_spectrum(ring), 1e-3)


def ring_state():
    """A normalized lab-frame walker on the N = 12 interface ring, with the ring."""
    ring = ring_with_interfaces(12, 1.29, 0.17)
    amps = np.random.default_rng(5).normal(size=(12, 2)) * (1 + 1j)
    return WalkerState(amps / np.linalg.norm(amps), ring.lattice), ring


def primed_readout():
    state, ring = ring_state()
    return coin_y_expectation(to_frame(state, ring, Frame.PRIMED), ring)


def explicit_ring():
    ring = ring_with_interfaces(12, 1.29, 0.17)
    return make_coin_profile("explicit", ring.lattice, angles=ring.angles)


@pytest.mark.parametrize("call, exc, fragment", [
    (primed_readout, ValueError, "pass lab-frame amplitudes"),
    (lambda: anomaly_expectation(*ring_state(), registration="cells"), ValueError,
     "unknown registration 'cells'"),
    (lambda: anomaly_expectation(np.full((12, 2), np.nan), ring_with_interfaces(12, 1.29, 0.17)),
     ValueError, "state must be normalized"),
    (lambda: site_polarizations(np.full((12, 2), np.nan), ring_with_interfaces(12, 1.29, 0.17),
                                [3, 0]), UnoccupiedSiteError, "site 3 unoccupied"),
    (lambda: midgap_spectrum(explicit_ring()), ValueError,
     "explicit profiles need an explicit tolerance"),
    (lambda: find_midgap(full_spectrum(explicit_ring())), ValueError,
     "explicit profiles need an explicit tolerance"),
], ids=["primed-walker", "unknown-registration", "nan-anomaly", "nan-polarization",
        "explicit-window-tol", "explicit-find-tol"])
def test_documented_raises(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)):
        call()


def test_readouts_accept_a_lab_walker_and_flat_amplitudes():
    state, ring = ring_state()
    for read in (coin_y_expectation, cell_z_expectation, anomaly_expectation):
        value = read(state.amplitudes, ring)
        assert read(state, ring) == value
        assert read(state.amplitudes.ravel(), ring) == value
