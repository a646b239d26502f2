import numpy as np
import pytest

from susyqw import (BoundaryReachedError, Frame, Lattice, LatticeMismatchError,
                    ProfileError, Topology, apply_coin, apply_shift, evolve,
                    localized_state, make_coin_profile, one_step_matrix,
                    segment_for, step, to_frame)

from helpers import dense_ring_oracle


def seg(n=9, origin=-4):
    return Lattice(n, Topology.SEGMENT, origin=origin)


def test_identity_coin_leaves_state():
    lat = seg()
    prof = make_coin_profile("uniform", lat, phi=0.0)
    st = localized_state(lat, 1)
    out = apply_coin(st, prof)
    np.testing.assert_allclose(out.amplitudes, st.amplitudes, atol=1e-15)


def test_quarter_coin_flips_h_to_v():
    lat = seg()
    prof = make_coin_profile("uniform", lat, phi=np.pi / 2)
    out = apply_coin(localized_state(lat, 0), prof)
    expected = np.zeros((lat.size, 2), dtype=complex)
    expected[lat.index(0), 1] = -1j
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)


def test_eighth_coin_superposes():
    lat = seg()
    prof = make_coin_profile("uniform", lat, phi=np.pi / 4)
    out = apply_coin(localized_state(lat, 2), prof)
    i = lat.index(2)
    np.testing.assert_allclose(out.amplitudes[i],
                               [1 / np.sqrt(2), -1j / np.sqrt(2)], atol=1e-15)


def test_shift_moves_h_up_and_v_down():
    lat = seg()
    up = apply_shift(localized_state(lat, 3, (1, 0)))
    down = apply_shift(localized_state(lat, 3, (0, 1)))
    assert up.site_probability(4) == pytest.approx(1.0)
    assert down.site_probability(2) == pytest.approx(1.0)
    both = apply_shift(localized_state(lat, 3, (1, 1)))
    assert both.site_probability(4) == pytest.approx(0.5)
    assert both.site_probability(2) == pytest.approx(0.5)


def test_shift_boundary_error():
    lat = Lattice(5, Topology.SEGMENT, origin=0)
    st = localized_state(lat, 4, (1, 0))
    with pytest.raises(BoundaryReachedError):
        apply_shift(st)


def test_single_step_bulk_amplitudes():
    lat = seg()
    prof = make_coin_profile("bulk", lat, phi1=1.29, phi2=0.17)
    assert prof.angle_at(1) == 1.29  # injection site carries phi1
    out = step(localized_state(lat, 1), prof)
    assert out.t == 1
    i2, i0 = lat.index(2), lat.index(0)
    np.testing.assert_allclose(out.amplitudes[i2, 0], np.cos(1.29), atol=1e-15)
    np.testing.assert_allclose(out.amplitudes[i0, 1], -1j * np.sin(1.29), atol=1e-15)


def test_ballistic_with_identity_coin():
    lat = segment_for(1, 5)
    prof = make_coin_profile("uniform", lat, phi=0.0)
    out = evolve(localized_state(lat, 1), prof, 5)
    assert out.site_probability(6) == pytest.approx(1.0)
    assert out.t == 5


def test_two_steps_at_half_pi_return_with_minus_sign():
    lat = segment_for(1, 2)
    prof = make_coin_profile("uniform", lat, phi=np.pi / 2)
    out = evolve(localized_state(lat, 1), prof, 2)
    i = lat.index(1)
    np.testing.assert_allclose(out.amplitudes[i], [-1.0, 0.0], atol=1e-14)


def test_evolve_zero_steps_is_identity():
    lat = seg()
    prof = make_coin_profile("bulk", lat, phi1=0.3, phi2=0.8)
    st = localized_state(lat, 1)
    out = evolve(st, prof, 0)
    np.testing.assert_array_equal(out.amplitudes, st.amplitudes)


def test_evolve_record_returns_trajectory():
    lat = segment_for(1, 4)
    prof = make_coin_profile("bulk", lat, phi1=0.5, phi2=0.2)
    traj = evolve(localized_state(lat, 1), prof, 4, record=True)
    assert [s.t for s in traj] == [0, 1, 2, 3, 4]


def test_unitarity_over_thousand_steps():
    rng = np.random.default_rng(7)
    lat = segment_for(1, 1000)
    prof = make_coin_profile("explicit", lat, angles=rng.uniform(0, 2 * np.pi, lat.size))
    st = localized_state(lat, 1, (0.6, 0.8j))
    out = evolve(st, prof, 1000)
    assert abs(out.norm() - 1.0) < 1e-12


def test_locality_of_one_step():
    lat = seg(11, -5)
    prof = make_coin_profile("bulk", lat, phi1=0.9, phi2=0.4)
    out = step(localized_state(lat, 0, (0.8, 0.6)), prof)
    probs = out.probabilities()
    occupied = {int(x) for x in lat.coords()[probs.sum(axis=1) > 1e-15]}
    assert occupied <= {-1, 1}
    assert probs[lat.index(1), 1] == 0  # V channel never moves up
    assert probs[lat.index(-1), 0] == 0


def _full_update(state, profile, steps):
    """The state after ``steps`` steps of apply_coin and apply_shift."""
    for _ in range(steps):
        state = apply_shift(apply_coin(state, profile))
    return state


@pytest.mark.parametrize("edge, i0", [("top", 10), ("bottom", 3)])
def test_boundary_error_fires_when_the_walk_leaves_the_segment(edge, i0):
    # H reaches the top site n - 1 after n - 1 - i0 steps, V the bottom site
    # after i0 steps; the step after that would move it off the segment
    n = 14
    lat = Lattice(n, Topology.SEGMENT, origin=0)
    last_ok = n - 1 - i0 if edge == "top" else i0
    prof = make_coin_profile("uniform", lat, phi=0.7)
    st = localized_state(lat, i0)
    edge_site = n - 1 if edge == "top" else 0
    assert evolve(st, prof, last_ok).site_probability(edge_site) > 0
    with pytest.raises(BoundaryReachedError):
        _full_update(st, prof, last_ok + 1)
    with pytest.raises(BoundaryReachedError):
        evolve(st, prof, last_ok + 1)
    with pytest.raises(BoundaryReachedError):
        evolve(st, prof, last_ok + 1, record=True)


@pytest.mark.parametrize("n_sites", [4, 6, 8])
def test_dense_matrix_oracle_on_ring(n_sites):
    rng = np.random.default_rng(n_sites)
    lat = Lattice(n_sites, Topology.RING)
    angles = rng.uniform(0, 2 * np.pi, n_sites)
    prof = make_coin_profile("explicit", lat, angles=angles)
    oracle = dense_ring_oracle(angles)
    np.testing.assert_allclose(one_step_matrix(prof), oracle, atol=1e-12)
    for _ in range(5):
        amps = rng.standard_normal((n_sites, 2)) + 1j * rng.standard_normal((n_sites, 2))
        amps /= np.linalg.norm(amps)
        st = localized_state(lat, 0)
        st = type(st)(amps, lat)
        stepped = step(st, prof).amplitudes.ravel()
        np.testing.assert_allclose(stepped, oracle @ amps.ravel(), atol=1e-12)


def test_frame_roundtrip_and_unitarity():
    rng = np.random.default_rng(3)
    lat = seg()
    prof = make_coin_profile("bulk", lat, phi1=1.29, phi2=0.17)
    amps = rng.standard_normal((lat.size, 2)) + 1j * rng.standard_normal((lat.size, 2))
    amps /= np.linalg.norm(amps)
    st = type(localized_state(lat, 0))(amps, lat)
    primed = to_frame(st, prof, Frame.PRIMED)
    assert primed.frame is Frame.PRIMED
    assert abs(primed.norm() - 1.0) < 1e-12
    back = to_frame(primed, prof, Frame.LAB)
    np.testing.assert_allclose(back.amplitudes, st.amplitudes, atol=1e-12)


def test_frame_accepts_its_string_value():
    lat = seg()
    prof = make_coin_profile("bulk", lat, phi1=1.29, phi2=0.17)
    st = localized_state(lat, 1, (0.6, 0.8))
    primed = to_frame(st, prof, Frame.PRIMED)
    by_value = to_frame(st, prof, "primed")
    assert by_value.frame is Frame.PRIMED
    np.testing.assert_array_equal(by_value.amplitudes, primed.amplitudes)
    back = to_frame(primed, prof, "lab")
    assert back.frame is Frame.LAB
    np.testing.assert_array_equal(back.amplitudes, to_frame(primed, prof, Frame.LAB).amplitudes)
    with pytest.raises(ValueError):
        to_frame(st, prof, "Primed")


def test_frame_identity_at_zero_angle():
    lat = seg()
    prof = make_coin_profile("uniform", lat, phi=0.0)
    st = localized_state(lat, 1, (0.6, 0.8))
    out = to_frame(st, prof, Frame.PRIMED)
    np.testing.assert_allclose(out.amplitudes, st.amplitudes, atol=1e-15)


def test_bulk_profile_alternation():
    prof = make_coin_profile("bulk", Lattice(40, Topology.SEGMENT), phi1=1.29, phi2=0.17)
    angles = prof.angles
    assert angles[1] == 1.29 and angles[2] == 0.17
    assert set(angles[1::2]) == {1.29} and set(angles[0::2]) == {0.17}


def test_uniform_profile():
    prof = make_coin_profile("uniform", 10, phi=0.0)
    assert np.all(prof.angles == 0.0)


def test_interface_profile_interchanges_pattern():
    lat = Lattice(40, Topology.SEGMENT, origin=-20)
    prof = make_coin_profile("interface", lat, phi1=1.29, phi2=0.17)
    bulk = make_coin_profile("bulk", lat, phi1=1.29, phi2=0.17)
    swapped = make_coin_profile("bulk", lat, phi1=0.17, phi2=1.29)
    coords = lat.coords()
    right = coords >= 1
    np.testing.assert_array_equal(prof.angles[right], bulk.angles[right])
    np.testing.assert_array_equal(prof.angles[~right], swapped.angles[~right])
    # both sites of the interface bond carry phi1
    assert prof.angle_at(0) == 1.29 and prof.angle_at(1) == 1.29


def test_profile_errors():
    with pytest.raises(ProfileError, match="even ring"):
        make_coin_profile("bulk", Lattice(7, Topology.RING), phi1=1.0, phi2=0.5)
    with pytest.raises(ProfileError):
        make_coin_profile("interface", Lattice(10, Topology.SEGMENT), phi1=1.0,
                          phi2=0.5, cuts=(99,))
    with pytest.raises(ProfileError):
        make_coin_profile("bulk", 12, phi1=np.nan, phi2=0.1)


def test_lattice_mismatch_is_rejected():
    prof = make_coin_profile("uniform", seg(), phi=0.1)
    other = localized_state(Lattice(7, Topology.SEGMENT, origin=-4), 0)
    with pytest.raises(LatticeMismatchError):
        apply_coin(other, prof)


def test_interface_trapping_after_13_steps():
    # Ideal-unitary trapped fraction at the interface site for plain H input.
    lat = segment_for(1, 13)
    prof = make_coin_profile("interface", lat, phi1=1.29, phi2=0.17)
    out = evolve(localized_state(lat, 1), prof, 13)
    assert out.site_probability(0) == pytest.approx(0.766096, abs=1e-4)


def test_interface_weight_dominates_after_17_steps():
    lat = segment_for(1, 17)
    prof = make_coin_profile("interface", lat, phi1=1.29, phi2=0.17)
    out = evolve(localized_state(lat, 1), prof, 17)
    probs = out.probabilities().sum(axis=1)
    assert lat.coords()[int(np.argmax(probs))] == 0
    assert probs.max() > 0.85
