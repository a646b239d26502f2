"""Acceptance suite: one test per criterion, tolerances as stated.

Criterion 6's scan maximum is asserted against the quoted target window
[0.80, 0.85]; the ideal unitary model tops out at 0.775 over the QWP(theta)|H>
inputs of the scan, and at 0.784 over the entire input polarization sphere
(ScanCurve.sphere_max); the quoted figure is an experimental value, so that
final assertion fails by construction.  Every other clause of criterion 6
runs first.
"""

import time

import numpy as np
import pytest

from susyqw import (Frame, Lattice, Topology, anomaly_expectation,
                    band_condition_value, band_structure, bloch_operator,
                    cell_z_expectation, check_symmetries, coin_y_expectation,
                    evolve, find_midgap, full_spectrum, localized_state,
                    long_time_extrapolation, make_coin_profile, measure_bases,
                    one_step_matrix, prepare_input, pure_state_fidelity,
                    quadruple_closure_distance, qwp_scan, ring_with_interfaces,
                    segment_for, site_polarization, susy_partners, to_frame,
                    tomography, winding_numbers, protected_gaps)
from susyqw.cli import main as cli_main

from helpers import dense_ring_oracle, multiset_distance


def test_criterion_1_band_condition_and_quadruple():
    start = time.perf_counter()
    for p1, p2 in ((1.0, 0.2), (1.29, 0.17)):
        bands = band_structure(p1, p2, resolution=512)
        target = band_condition_value(bands.k_grid, p1, p2)
        residual = np.abs((bands.eigenvalues ** 2).real - target[:, None]).max()
        assert residual < 1e-10
        for i in range(bands.k_grid.size):
            assert quadruple_closure_distance(bands.eigenvalues[i]) < 1e-10
    assert time.perf_counter() - start < 1.0


def test_criterion_2_symmetry_algebra_and_factorization():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        k, p1, p2 = rng.uniform(0, 2 * np.pi, 3)
        rep = check_symmetries(bloch_operator(k, p1, p2, Frame.PRIMED))
        assert rep.chiral_residual < 1e-12
        assert rep.susy_residual < 1e-12
        u = bloch_operator(k, p1, p2).matrix
        a, b = susy_partners(k, p1, p2)
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2], block[2:, 2:] = a, b
        assert np.linalg.norm(u @ u - block, 2) < 1e-12


def test_criterion_3_bloch_matches_real_space_ring():
    start = time.perf_counter()
    m_cells = 8
    prof = make_coin_profile("bulk", Lattice(2 * m_cells, Topology.RING),
                             phi1=1.29, phi2=0.17)
    ring = full_spectrum(prof).eigenvalues
    bloch = np.concatenate([
        np.linalg.eigvals(bloch_operator(2 * np.pi * m / m_cells, 1.29, 0.17).matrix)
        for m in range(m_cells)])
    bloch /= np.abs(bloch)
    assert multiset_distance(ring, bloch) < 1e-9
    assert time.perf_counter() - start < 1.0


def test_criterion_4_midgap_anomaly():
    start = time.perf_counter()
    profile = ring_with_interfaces(40, 1.29, 0.17)
    spectrum = full_spectrum(profile)
    lam = spectrum.eigenvalues

    dist_imag = np.minimum(np.abs(lam - 1j), np.abs(lam + 1j))
    assert (dist_imag < 1e-6).sum() == 4

    states = find_midgap(spectrum)
    assert len(states) == 4
    for s in states:
        assert anomaly_expectation(s, profile) == pytest.approx(-1.0, abs=1e-3)
        probs = (np.abs(s.amplitudes) ** 2).sum(axis=1)
        occupied = np.where(probs > 1e-10)[0]
        s3 = {int(x): site_polarization(s, profile, int(x))[2] for x in occupied}
        assert all(abs(abs(v) - 1.0) < 1e-3 for v in s3.values())
        x0 = min(s3)
        for x, v in s3.items():
            expected_sign = np.sign(s3[x0]) * (1 if (x - x0) % 2 == 0 else -1)
            assert np.sign(v) == expected_sign

    dist_real = np.minimum(np.abs(lam - 1), np.abs(lam + 1))
    away = (dist_imag > 1e-3) & (dist_real > 1e-3)
    for j in np.where(away)[0]:
        amps = spectrum.amplitudes_of(j)
        assert abs(anomaly_expectation(amps, profile)) < 1e-8
        assert abs(coin_y_expectation(amps, profile)) < 1e-8
        assert abs(cell_z_expectation(amps, profile)) < 1e-8
    assert time.perf_counter() - start < 10.0


def test_criterion_5_topological_distinction_and_gap_closure():
    fwd = winding_numbers(1.29, 0.17, 1024)
    rev = winding_numbers(0.17, 1.29, 1024)
    assert any(a != b for a, b in zip(fwd.windings, rev.windings))
    assert max(fwd.residuals) < 1e-6 and max(rev.residuals) < 1e-6
    assert winding_numbers(1.29, 0.17, 2048).windings == fwd.windings
    assert winding_numbers(0.17, 1.29, 2048).windings == rev.windings

    deltas = np.logspace(-1, -6, 10)
    gaps = [protected_gaps(1.29, 1.29 - d)[1] for d in deltas]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


def test_criterion_6_polarization_scan():
    start = time.perf_counter()
    grid = np.arange(0.0, 180.0, 1.0)
    lat = segment_for(1, 13)
    interface = make_coin_profile("interface", lat, phi1=1.29, phi2=0.17)
    bulk = make_coin_profile("bulk", lat, phi1=1.29, phi2=0.17)

    ci = qwp_scan(interface, 13, 0, grid)
    cb = qwp_scan(bulk, 13, 0, grid)
    assert ci.intensities.min() <= 0.30
    assert np.ptp(cb.intensities) < np.ptp(ci.intensities)

    li = long_time_extrapolation(interface, 100, 0, grid)
    lb = long_time_extrapolation(bulk, 100, 0, grid)
    assert np.ptp(li.intensities) > 0.3
    assert np.ptp(lb.intensities) * 2 <= np.ptp(li.intensities)
    assert time.perf_counter() - start < 30.0

    # Quoted target window; the loss-free unitary walk cannot reach it (its
    # maximum over the whole input sphere is 0.784 at this step count).
    peak = float(ci.intensities.max())
    assert 0.80 <= peak <= 0.85, (
        f"ideal-model scan maximum {peak:.4f} misses the quoted window "
        f"[0.80, 0.85] (an experimental value)")


def test_criterion_7_tomography_of_trapped_state():
    lat = segment_for(1, 17)
    profile = make_coin_profile("interface", lat, phi1=1.29, phi2=0.17)
    final = evolve(prepare_input(1, [], lat), profile, 17)
    rho = tomography(measure_bases(final, 0, Frame.PRIMED, profile))
    amp_h, amp_v, phase = rho.decomposition()
    assert amp_h == pytest.approx(0.72, abs=0.05)
    assert amp_v == pytest.approx(0.69, abs=0.05)
    assert phase == pytest.approx(0.50 * np.pi, abs=0.05 * np.pi)
    spinor = to_frame(final, profile, Frame.PRIMED).amplitudes[lat.index(0)]
    assert pure_state_fidelity(rho, spinor) > 1 - 1e-10


def test_criterion_8_property_suite(tmp_path):
    # unitarity drift over 1000 steps
    rng = np.random.default_rng(99)
    lat = segment_for(1, 1000)
    prof = make_coin_profile("explicit", lat,
                             angles=rng.uniform(0, 2 * np.pi, lat.size))
    out = evolve(localized_state(lat, 1), prof, 1000)
    assert abs(out.norm() - 1.0) < 1e-12

    # dense-oracle step equivalence on small rings
    for n in (4, 6, 8):
        ring = Lattice(n, Topology.RING)
        angles = rng.uniform(0, 2 * np.pi, n)
        rp = make_coin_profile("explicit", ring, angles=angles)
        assert np.abs(one_step_matrix(rp) - dense_ring_oracle(angles)).max() < 1e-12

    # tomography completeness identities
    for _ in range(20):
        spinor = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        st = localized_state(Lattice(5, Topology.SEGMENT), 2, spinor)
        m = measure_bases(st, 2)
        assert abs(m.i_h + m.i_v - (m.i_d + m.i_a)) < 1e-10
        assert abs(m.i_h + m.i_v - (m.i_r + m.i_l)) < 1e-10

    # byte-identical CLI reruns
    files = []
    for name in ("first", "second"):
        out_file = tmp_path / f"{name}.csv"
        assert cli_main(["scan", "--steps", "7", "--angles", "0:180:15",
                         "--out", str(out_file)]) == 0
        files.append(out_file.read_bytes())
    assert files[0] == files[1]
