import re
import warnings

import numpy as np
import pytest

from susyqw import (Frame, Lattice, LatticeMismatchError, Topology, UnoccupiedSiteError,
                    evolve, jitter_intensities, localized_state, long_time_extrapolation,
                    make_coin_profile, measure_bases, prepare_input, pure_state_fidelity,
                    qwp_scan, ring_with_interfaces, scan, segment_for, to_frame, tomography,
                    waveplate)
from susyqw.optics import BasisIntensities, DensityMatrix, ScanCurve

from helpers import coin_2x2

H = np.array([1.0, 0.0], dtype=complex)


def overlap(a, b):
    return abs(np.vdot(a, b))


@pytest.mark.parametrize("kind,theta", [("qwp", 0), ("qwp", 137), ("hwp", 50),
                                        ("qwp", 45), ("hwp", 22.5)])
def test_waveplates_are_unitary(kind, theta):
    w = waveplate(kind, theta)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(2), atol=1e-14)


def test_waveplate_standard_actions():
    assert overlap(waveplate("qwp", 0) @ H, H) == pytest.approx(1.0, abs=1e-14)
    diag = np.array([1, 1]) / np.sqrt(2)
    assert overlap(waveplate("hwp", 22.5) @ H, diag) == pytest.approx(1.0, abs=1e-14)
    out = waveplate("qwp", 45) @ H
    circ_plus = np.array([1, 1j]) / np.sqrt(2)
    circ_minus = np.array([1, -1j]) / np.sqrt(2)
    assert max(overlap(out, circ_plus), overlap(out, circ_minus)) == pytest.approx(1.0, abs=1e-14)


def test_waveplate_unknown_kind():
    with pytest.raises(ValueError):
        waveplate("tilt", 10)


def test_prepare_input_plain_and_plated():
    lat = segment_for(1, 5)
    st = prepare_input(1, [], lat)
    assert st.site_probability(1) == pytest.approx(1.0)
    np.testing.assert_allclose(st.amplitudes[lat.index(1)], H, atol=1e-15)
    st2 = prepare_input(1, [("qwp", 137.0)], lat)
    np.testing.assert_allclose(st2.amplitudes[lat.index(1)],
                               waveplate("qwp", 137.0) @ H, atol=1e-14)
    assert abs(st2.norm() - 1.0) < 1e-14
    for state in (st, st2):
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0, 0] = 1.0


def test_measure_bases_pure_h():
    lat = segment_for(0, 2)
    st = localized_state(lat, 0, (1, 0))
    m = measure_bases(st, 0)
    assert (m.i_h, m.i_v) == (pytest.approx(1.0), pytest.approx(0.0))
    for val in (m.i_d, m.i_a, m.i_r, m.i_l):
        assert val == pytest.approx(0.5, abs=1e-12)


def test_measure_bases_circular_handedness():
    lat = segment_for(0, 2)
    st = localized_state(lat, 0, (1, 1j))
    m = measure_bases(st, 0)
    assert m.i_r == pytest.approx(1.0, abs=1e-12)
    assert m.i_l == pytest.approx(0.0, abs=1e-12)


def test_basis_intensity_sums_agree():
    rng = np.random.default_rng(11)
    lat = segment_for(0, 2)
    for _ in range(20):
        spinor = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        st = localized_state(lat, 0, spinor)
        m = measure_bases(st, 0)
        total = m.i_h + m.i_v
        assert m.i_d + m.i_a == pytest.approx(total, abs=1e-10)
        assert m.i_r + m.i_l == pytest.approx(total, abs=1e-10)


def test_tomography_recovers_pure_states():
    rng = np.random.default_rng(5)
    lat = segment_for(0, 2)
    for _ in range(25):
        spinor = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        spinor /= np.linalg.norm(spinor)
        st = localized_state(lat, 0, spinor)
        rho = tomography(measure_bases(st, 0))
        assert pure_state_fidelity(rho, spinor) > 1 - 1e-10
        np.testing.assert_allclose(rho.matrix, np.outer(spinor, spinor.conj()),
                                   atol=1e-12)


def test_tomography_examples():
    lat = segment_for(0, 2)
    rho_h = tomography(measure_bases(localized_state(lat, 0, (1, 0)), 0))
    np.testing.assert_allclose(rho_h.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    rho_c = tomography(measure_bases(localized_state(lat, 0, (1, 1j)), 0))
    np.testing.assert_allclose(rho_c.matrix, [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-12)


def test_tomography_clips_unphysical_inputs():
    bad = BasisIntensities(1.0, 0.0, 1.0, 0.0, 1.0, 0.0)  # over-polarized
    rho = tomography(bad)
    assert rho.clipped
    np.testing.assert_array_equal(rho.matrix, rho.matrix.conj().T)
    evals = np.linalg.eigvalsh(rho.matrix)
    assert evals.min() >= -1e-12
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_density_matrix_is_a_read_only_copy():
    given = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    rho = DensityMatrix(given)
    given[0, 0] = np.nan
    np.testing.assert_array_equal(rho.matrix, [[0.5, -0.5j], [0.5j, 0.5]])
    made = tomography(BasisIntensities(1.0, 0.0, 0.5, 0.5, 0.5, 0.5))
    for matrix in (rho.matrix, made.matrix):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0


def test_tomography_zero_intensity_rejected():
    with pytest.raises(UnoccupiedSiteError):
        tomography(BasisIntensities(0, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_tomography_refuses_non_finite_intensities(bad):
    # an occupied site with one non-finite reading would give an all-NaN rho
    with pytest.raises(ValueError, match="basis intensities must be finite"):
        tomography(BasisIntensities(1.0, 0.0, bad, 0.5, 0.5, 0.5))


@pytest.mark.parametrize("intensities", [
    (1e308, 1e308, 1e308, 0.0, 0.0, 0.0),  # S0 = I_H + I_V overflows
    (1e308, 0.0, 0.0, 0.0, 0.0, 0.0),      # S0 + S1, the entry rho_HH, overflows
    (8e307, 8e307, 1.7e308, 0.0, 1.7e308, 0.0),  # finite S0-S3, an eigenvalue of rho overflows
], ids=["s0-overflows", "rho-overflows", "eigenvalue-overflows"])
def test_tomography_refuses_stokes_parameters_it_cannot_hold(intensities):
    """Finite readings too large for rho raise one ValueError, with no NumPy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Stokes parameters out of range"):
            tomography(BasisIntensities(*intensities))


def test_frame_consistency_of_tomography():
    lat = segment_for(1, 9)
    prof = make_coin_profile("interface", lat, phi1=1.29, phi2=0.17)
    final = evolve(prepare_input(1, [("qwp", 30)], lat), prof, 9)
    x = 0
    rho_lab = tomography(measure_bases(final, x, Frame.LAB, prof)).matrix
    rho_primed = tomography(measure_bases(final, x, Frame.PRIMED, prof)).matrix
    half = coin_2x2(prof.angle_at(x) / 2)
    np.testing.assert_allclose(half @ rho_lab @ half.conj().T, rho_primed, atol=1e-10)


def test_measure_bases_reads_the_requested_frame_of_either_state():
    lat = segment_for(1, 9)
    prof = make_coin_profile("interface", lat, phi1=1.29, phi2=0.17)
    final = evolve(prepare_input(1, [("qwp", 30)], lat), prof, 9)
    primed = to_frame(final, prof, Frame.PRIMED)

    def read(state, frame):
        b = measure_bases(state, 0, frame, prof)
        return np.array([b.i_h, b.i_v, b.i_d, b.i_a, b.i_r, b.i_l])

    lab = read(final, Frame.LAB)
    assert lab[0] == pytest.approx(0.00724, abs=1e-5) and lab[1] == pytest.approx(0.733, abs=1e-3)
    np.testing.assert_allclose(read(primed, Frame.LAB), lab, rtol=0, atol=1e-12)
    # bit for bit: measuring a primed state is measuring the lab state primed
    np.testing.assert_array_equal(read(primed, Frame.PRIMED), read(final, Frame.PRIMED))


def test_long_run_tomography_matches_trapped_circular_state():
    # |H> input on the interface, 17 steps: the trapped site-0 state is the
    # near-equal-amplitude right-circular primed superposition
    lat = segment_for(1, 17)
    prof = make_coin_profile("interface", lat, phi1=1.29, phi2=0.17)
    final = evolve(prepare_input(1, [], lat), prof, 17)
    rho = tomography(measure_bases(final, 0, Frame.PRIMED, prof))
    amp_h, amp_v, phase = rho.decomposition()
    assert amp_h == pytest.approx(0.72, abs=0.05)
    assert amp_v == pytest.approx(0.69, abs=0.05)
    assert phase == pytest.approx(0.50 * np.pi, abs=0.05 * np.pi)
    spinor = to_frame(final, prof, Frame.PRIMED).amplitudes[lat.index(0)]
    assert pure_state_fidelity(rho, spinor) > 1 - 1e-10


def test_qwp_scan_interface_extremes():
    lat = segment_for(1, 13)
    prof = make_coin_profile("interface", lat, phi1=1.29, phi2=0.17)
    curve = qwp_scan(prof, 13, 0, np.arange(0.0, 180.0, 1.0))
    assert curve.intensities.max() == pytest.approx(0.77512, abs=1e-4)
    assert curve.intensities.min() == pytest.approx(0.27550, abs=1e-4)
    assert curve.intensities.min() <= 0.30


def test_sphere_max_bounds_the_scan():
    # the maximum over every input polarization, quoted in the README and in
    # the criterion-6 comment, lies above the QWP-only maximum of 0.775
    lat = segment_for(1, 13)
    prof = make_coin_profile("interface", lat, phi1=1.29, phi2=0.17)
    curve = qwp_scan(prof, 13, 0, np.arange(0.0, 180.0, 1.0))
    assert curve.sphere_max == pytest.approx(0.784, abs=1e-3)
    assert curve.intensities.max() <= curve.sphere_max
    rng = np.random.default_rng(4)
    for _ in range(20):
        spinor = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        final = evolve(localized_state(lat, 1, spinor), prof, 13)
        assert final.site_probability(0) <= curve.sphere_max + 1e-12


def test_qwp_scan_bulk_range_smaller():
    grid = np.arange(0.0, 180.0, 2.0)
    lat = segment_for(1, 13)
    inter = make_coin_profile("interface", lat, phi1=1.29, phi2=0.17)
    bulk = make_coin_profile("bulk", lat, phi1=1.29, phi2=0.17)
    ci = qwp_scan(inter, 13, 0, grid)
    cb = qwp_scan(bulk, 13, 0, grid)
    assert np.ptp(cb.intensities) < np.ptp(ci.intensities)


def test_qwp_scan_zero_steps_flat_zero():
    prof = make_coin_profile("interface", segment_for(1, 0), phi1=1.29, phi2=0.17)
    curve = qwp_scan(prof, 0, 0, np.arange(0.0, 180.0, 10.0))
    assert np.all(curve.intensities == 0.0)


@pytest.mark.parametrize("scan", [qwp_scan, long_time_extrapolation])
def test_scan_curve_keeps_a_copy_of_its_grid(scan):
    prof = make_coin_profile("interface", segment_for(1, 5), phi1=1.29, phi2=0.17)
    grid = np.arange(0.0, 180.0, 30.0)
    curve = scan(prof, 5, 0, grid)
    grid[0] = 90.0
    assert curve.angles_deg is not grid and curve.angles_deg[0] == 0.0


@pytest.mark.parametrize("scan", [qwp_scan, long_time_extrapolation])
def test_scan_curve_arrays_are_read_only(scan):
    prof = make_coin_profile("interface", segment_for(1, 5), phi1=1.29, phi2=0.17)
    curve = scan(prof, 5, 0, np.arange(0.0, 180.0, 30.0))
    for values in (curve.intensities, curve.angles_deg):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


def test_scan_curve_built_by_a_caller_is_a_read_only_copy():
    angles, intensities = np.arange(0.0, 180.0, 60.0), np.array([0.1, 0.2, 0.3])
    curve = ScanCurve(angles, intensities, steps=5, x_probe=0, sphere_max=0.3)
    angles[0], intensities[0] = 90.0, np.nan
    np.testing.assert_array_equal(curve.angles_deg, [0.0, 60.0, 120.0])
    np.testing.assert_array_equal(curve.intensities, [0.1, 0.2, 0.3])
    for values in (curve.angles_deg, curve.intensities):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


def test_scan_pi_periodicity():
    prof = make_coin_profile("interface", segment_for(1, 7), phi1=1.29, phi2=0.17)
    a = qwp_scan(prof, 7, 0, np.arange(0.0, 180.0, 15.0))
    b = qwp_scan(prof, 7, 0, np.arange(180.0, 360.0, 15.0))
    np.testing.assert_allclose(a.intensities, b.intensities, atol=1e-10)


def test_scan_bitwise_reproducible():
    prof = make_coin_profile("interface", segment_for(1, 9), phi1=1.29, phi2=0.17)
    grid = np.arange(0.0, 180.0, 5.0)
    first = qwp_scan(prof, 9, 0, grid)
    second = qwp_scan(prof, 9, 0, grid)
    assert np.array_equal(first.intensities, second.intensities)


def test_scan_rejects_empty_grid():
    prof = make_coin_profile("interface", segment_for(1, 5), phi1=1.29, phi2=0.17)
    with pytest.raises(ValueError):
        qwp_scan(prof, 5, 0, np.array([]))


def test_long_time_extrapolation_contrast():
    grid = np.arange(0.0, 180.0, 4.0)
    lat = segment_for(1, 13)
    inter = make_coin_profile("interface", lat, phi1=1.29, phi2=0.17)
    bulk = make_coin_profile("bulk", lat, phi1=1.29, phi2=0.17)
    ci = long_time_extrapolation(inter, 100, 0, grid)
    cb = long_time_extrapolation(bulk, 100, 0, grid)
    assert ci.cell_probe and ci.steps == 100
    assert np.ptp(ci.intensities) > 0.3
    assert np.ptp(cb.intensities) * 2 < np.ptp(ci.intensities)
    assert np.all((0 <= ci.intensities) & (ci.intensities <= 1))


def test_jitter_is_seeded_and_clamped():
    m = BasisIntensities(0.5, 0.5, 0.6, 0.4, 0.9, 0.1)
    a = jitter_intensities(m, 0.05, np.random.default_rng(42))
    b = jitter_intensities(m, 0.05, np.random.default_rng(42))
    c = jitter_intensities(m, 0.05, np.random.default_rng(43))
    assert (a.i_h, a.i_v, a.i_d, a.i_a, a.i_r, a.i_l) == \
           (b.i_h, b.i_v, b.i_d, b.i_a, b.i_r, b.i_l)
    assert a.i_h != c.i_h
    huge = jitter_intensities(BasisIntensities(1e-3, 0, 0, 0, 0, 0), 5000.0,
                              np.random.default_rng(1))
    assert min(huge.i_h, huge.i_v, huge.i_d, huge.i_a, huge.i_r, huge.i_l) >= 0.0


@pytest.mark.parametrize("call, exc, fragment", [
    (lambda: measure_bases(localized_state(segment_for(1, 3), 1), 1, Frame.PRIMED), ValueError,
     "primed-frame measurement needs the coin profile"),
    (lambda: measure_bases(to_frame(localized_state(segment_for(1, 3), 1),
                                    make_coin_profile("uniform", segment_for(1, 3), phi=0.3),
                                    Frame.PRIMED), 1, Frame.LAB), ValueError,
     "lab-frame measurement needs the coin profile (the state is in the primed frame)"),
    (lambda: tomography(BasisIntensities(np.nan, 0.0, 0.0, 0.0, 0.0, 0.0)), ValueError,
     "basis intensities must be finite"),
    (lambda: waveplate("lwp", 0.0), ValueError, "unknown waveplate kind 'lwp'"),
    (lambda: qwp_scan(make_coin_profile("bulk", 9, phi1=1.29, phi2=0.17), 3, 0, []), ValueError,
     "angle grid is empty"),
], ids=["primed-without-profile", "lab-without-profile", "nan-intensity", "unknown-plate",
        "empty-scan-grid"])
def test_documented_raises(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)):
        call()


@pytest.mark.parametrize("other", [Lattice(11, Topology.SEGMENT, origin=-5),
                                   Lattice(13, Topology.SEGMENT, origin=-5)],
                         ids=["same-size-other-origin", "other-size"])
def test_scan_needs_its_profiles_on_one_lattice(other):
    # a 3-step walk from site 1 stays on sites -2..4, which both segments
    # and segment_for(1, 3) = -4..6 cover, so no profile is resized
    grid = np.arange(0.0, 180.0, 30.0)
    own = make_coin_profile("interface", segment_for(1, 3), phi1=1.29, phi2=0.17)
    moved = make_coin_profile("bulk", other, phi1=1.29, phi2=0.17)
    with pytest.raises(LatticeMismatchError, match="different lattices"):
        scan([own, moved], 3, 0, grid)
    # a profile too small for the walk is resized onto segment_for(1, 3) first
    small = make_coin_profile("bulk", Lattice(5, Topology.SEGMENT, origin=-1),
                              phi1=1.29, phi2=0.17)
    for curve, profile in zip(scan([own, small], 3, 0, grid), [own, small]):
        alone = qwp_scan(profile, 3, 0, grid)
        np.testing.assert_array_equal(curve.intensities, alone.intensities)
        assert curve.sphere_max == alone.sphere_max
    with pytest.raises(ValueError, match="no profile to scan"):
        scan([], 3, 0, grid)


def per_angle_probe(profile, steps, sites, grid):
    """The probe intensity of each QWP angle from its own ``evolve`` on the profile's lattice."""
    finals = [evolve(prepare_input(1, [("qwp", theta)], profile.lattice), profile, steps)
              for theta in grid]
    return [sum(final.site_probability(x) for x in sites) for final in finals]


@pytest.mark.parametrize("profile", [
    make_coin_profile("bulk", Lattice(8, Topology.RING), phi1=1.29, phi2=0.17),
    ring_with_interfaces(40, 1.29, 0.17),
], ids=["bulk-ring-8", "interface-ring-40"])
def test_a_ring_profile_is_scanned_on_its_ring(profile):
    # 13 steps wrap around the 8-site ring; on the 40-site ring the second
    # interface (bond (20, 21)) lies outside segment_for(1, 13)
    grid = np.arange(0.0, 180.0, 15.0)
    curve = qwp_scan(profile, 13, 0, grid)
    np.testing.assert_allclose(curve.intensities, per_angle_probe(profile, 13, [0], grid),
                               rtol=0, atol=1e-12)
    cell = long_time_extrapolation(profile, 13, 0, grid)
    np.testing.assert_allclose(cell.intensities, per_angle_probe(profile, 13, [0, 1], grid),
                               rtol=0, atol=1e-12)
    if profile.lattice.size == 8:  # the re-laid segment read 0.061043 here
        assert curve.intensities[0] == pytest.approx(0.092690, abs=1e-6)


@pytest.mark.parametrize("call, fragment", [
    (lambda p: long_time_extrapolation(p, -3, 0, [0.0, 45.0]), "steps must be non-negative"),
    (lambda p: qwp_scan(p, 3, 1, [0.0, np.nan]), "angle grid must be finite"),
], ids=["negative-steps", "nan-grid"])
def test_scan_refuses_what_it_would_answer_wrongly(call, fragment):
    # without the checks these read the input state or a NaN intensity
    profile = make_coin_profile("interface", segment_for(1, 3), phi1=1.29, phi2=0.17)
    with pytest.raises(ValueError, match=fragment):
        call(profile)


def test_long_time_extrapolation_defaults_to_a_degree_grid():
    profile = make_coin_profile("interface", segment_for(1, 100), phi1=1.29, phi2=0.17)
    curve = long_time_extrapolation(profile)
    np.testing.assert_array_equal(curve.angles_deg, np.arange(180.0))
    assert curve.steps == 100 and curve.x_probe == 0 and curve.cell_probe
    explicit = long_time_extrapolation(profile, 100, 0, np.arange(180.0))
    np.testing.assert_array_equal(curve.intensities, explicit.intensities)
