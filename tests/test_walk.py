import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from susyqw import (BoundaryReachedError, Frame, Lattice, LatticeMismatchError,
                    ProfileError, Topology, apply_coin, apply_shift, evolve,
                    localized_state, make_coin_profile, one_step_matrix,
                    resize_profile, segment_for, step, to_frame)
from susyqw.walk import advance

from helpers import dense_ring_oracle, trajectory


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


def steps_made(walk) -> int:
    """The steps a walk makes before it reaches the boundary, which it must."""
    made = 0
    with pytest.raises(BoundaryReachedError):
        for _ in walk:
            made += 1
    return made


@pytest.mark.parametrize("edge_first", [True, False])
@pytest.mark.parametrize("runner_site, coin", [(6, (1, 0)), (2, (0, 1))])
def test_a_batch_stops_where_its_one_edge_walk_does(edge_first, runner_site, coin):
    # phi = 0 moves H up and V down one site a step, so on sites 0..8 the
    # H walk from site 6 (the V walk from site 2) makes 2 steps and leaves
    # at its 3rd; no walk from site 4 meets an edge within 4 steps
    lat = Lattice(9, Topology.SEGMENT, origin=0)
    runner = make_coin_profile("uniform", lat, phi=0.0)
    other = make_coin_profile("bulk", lat, phi1=1.29, phi2=0.17)
    alone = localized_state(lat, runner_site, coin)
    assert steps_made(advance(alone.amplitudes.astype(complex).T, runner.angles,
                              lat.topology, 9)) == 2
    with pytest.raises(BoundaryReachedError):
        evolve(alone, runner, 3)

    # both inputs of both profiles in the real gauge (h, -i v) of advance:
    # |H> starts as (1, 0), |V> is -i times the walk from (0, 1)
    profiles = [runner, other] if edge_first else [other, runner]
    walks = np.zeros((2, 2, 2, lat.size))
    for p, profile in enumerate(profiles):
        site = runner_site if profile is runner else 4
        walks[0, p, 0, site] = walks[1, p, 1, site] = 1.0
    angles = np.array([[p.angles] * 2 for p in profiles])
    assert steps_made(advance(walks, angles, lat.topology, 9)) == 2
    # the error leaves the buffer at the last step made, where the other
    # profile's walks are its lone complex walks
    inside = walks[:, profiles.index(other)]
    lab = [np.stack([inside[0, 0], 1j * inside[1, 0]], axis=1),
           np.stack([-1j * inside[0, 1], inside[1, 1]], axis=1)]
    for start, amps in zip(((1, 0), (0, 1)), lab):
        lone = evolve(localized_state(lat, 4, start), other, 2)
        np.testing.assert_array_equal(amps, lone.amplitudes)


def test_advance_refuses_a_buffer_it_cannot_flatten_in_place():
    # every other walk of a (2, 4, N) array: the (2, -1) reshape would copy,
    # and the walk would advance the copy
    walks = np.zeros((2, 4, 7))[:, ::2]
    walks[0, :, 3] = 1.0
    with pytest.raises(ValueError, match="without a copy"):
        next(advance(walks, np.zeros((2, 7)), Topology.SEGMENT, 1))


def test_evolve_results_are_read_only():
    lat = segment_for(1, 3)
    prof = make_coin_profile("bulk", lat, phi1=0.5, phi2=0.2)
    start = localized_state(lat, 1)
    before = start.amplitudes.copy()
    made = [evolve(start, prof, 3), step(start, prof), *trajectory(start, prof, 3)[1:]]
    for state in [start, *made]:
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0, 0] = 1.0
    np.testing.assert_array_equal(start.amplitudes, before)  # the given state is left as it was


@pytest.mark.parametrize("make", [
    lambda st, prof: apply_coin(st, prof),
    lambda st, prof: apply_shift(st),
    lambda st, prof: to_frame(st, prof, Frame.PRIMED),
    lambda st, prof: to_frame(st, prof, Frame.LAB),
], ids=["apply-coin", "apply-shift", "to-other-frame", "to-same-frame"])
def test_single_operations_return_read_only_amplitudes(make):
    lat = seg()
    prof = make_coin_profile("bulk", lat, phi1=0.5, phi2=0.2)
    start = localized_state(lat, 1)
    before = start.amplitudes.copy()
    for state in (make(start, prof), start):
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0, 0] = 1.0
    np.testing.assert_array_equal(start.amplitudes, before)


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


def test_one_step_matrix_peak_stays_near_its_output():
    # at N = 512 the matrix is 16 MiB of complex128; assembling it must not
    # hold further arrays of that size (one per unit vector and a scratch)
    n = 512
    prof = make_coin_profile("bulk", Lattice(n, Topology.RING), phi1=1.29, phi2=0.17)
    tracemalloc.start()
    try:
        one_step_matrix(prof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (2 * n) ** 2 * 16


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


@pytest.mark.parametrize("kind", ["bulk", "interface", "uniform", "explicit"])
def test_profile_angles_are_a_read_only_copy(kind):
    given = np.full(8, 0.3)
    prof = make_coin_profile(kind, 8, phi1=0.3, phi2=0.3, phi=0.3, angles=given)
    given[0] = np.nan
    np.testing.assert_array_equal(prof.angles, np.full(8, 0.3))
    with pytest.raises(ValueError, match="read-only"):
        prof.angles[0] = 1.0


def test_replaced_profile_angles_are_a_read_only_copy():
    """A profile made by ``dataclasses.replace``, not by make_coin_profile, owns its angles."""
    given = np.linspace(0.1, 0.8, 8)
    prof = replace(make_coin_profile("bulk", 8, phi1=0.3, phi2=0.2), angles=given)
    given[0] = np.nan
    np.testing.assert_array_equal(prof.angles, np.linspace(0.1, 0.8, 8))
    with pytest.raises(ValueError, match="read-only"):
        prof.angles[0] = 1.0


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


RING8 = Lattice(8, Topology.RING)


@pytest.mark.parametrize("call, exc, fragment", [
    (lambda: Lattice(8, Topology.RING, origin=1), ProfileError, "ring lattice uses origin 0"),
    (lambda: make_coin_profile("uniform", 8), ProfileError, "uniform profile needs phi"),
    (lambda: make_coin_profile("explicit", 8, angles=[0.1] * 7), ProfileError,
     "explicit angles must have shape (8,)"),
    (lambda: make_coin_profile("explicit", 8, angles=[0.1] * 7 + [np.inf]), ProfileError,
     "coin angles must be finite"),
    (lambda: make_coin_profile("uniform", 8, phi=np.nan), ProfileError,
     "coin angles must be finite"),
    (lambda: make_coin_profile("uniform", RING8, phi=np.inf), ProfileError,
     "coin angles must be finite"),
    (lambda: make_coin_profile("stripes", 8, phi1=1.0, phi2=0.5), ProfileError,
     "unknown profile kind 'stripes'"),
    (lambda: make_coin_profile("interface", 8, phi1=1.0), ProfileError,
     "interface profile needs phi1 and phi2"),
    (lambda: make_coin_profile("interface", RING8, phi1=1.0, phi2=0.5, cuts=(1, 3, 5)),
     ProfileError, "ring needs an even number of interfaces"),
    (lambda: make_coin_profile("interface", RING8, phi1=1.0, phi2=0.5, cuts=(1, 8)),
     ProfileError, "interface site 8 outside ring of 8"),
    (lambda: make_coin_profile("interface", RING8, phi1=1.0, phi2=0.5, cuts=(3, 3)),
     ProfileError, "duplicate interface sites"),
    (lambda: resize_profile(make_coin_profile("explicit", 8, angles=[0.1] * 8), seg()),
     ProfileError, "cannot resize an explicit profile"),
    (lambda: localized_state(seg(), 0, (0.0, 0.0)), ValueError, "nonzero 2-vector"),
    (lambda: evolve(localized_state(seg(), 0), make_coin_profile("uniform", seg(), phi=0.1), -1),
     ValueError, "steps must be non-negative"),
    (lambda: one_step_matrix(make_coin_profile("bulk", seg(), phi1=1.0, phi2=0.5)),
     ProfileError, "assembled on rings only"),
], ids=["ring-origin", "uniform-no-phi", "explicit-shape", "explicit-inf", "uniform-nan",
        "uniform-ring-inf", "unknown-kind", "missing-phi2", "odd-ring-cuts", "cut-off-ring",
        "duplicate-cuts", "resize-explicit", "zero-spinor", "negative-steps", "segment-matrix"])
def test_documented_raises(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)):
        call()


def test_resize_keeps_a_uniform_angle():
    wider = Lattice(12, Topology.SEGMENT, origin=-6)
    resized = resize_profile(make_coin_profile("uniform", seg(), phi=0.3), wider)
    assert resized.lattice == wider and resized.kind == "uniform"
    np.testing.assert_array_equal(resized.angles, np.full(12, 0.3))


@pytest.mark.parametrize("size, origin", [(9, 2**63 - 4), (5, 2**63 - 4), (2, -2**63 - 1),
                                          (2**64 + 1, -2**63)])
def test_lattice_coordinates_past_int64_raise(size, origin):
    with pytest.raises(OverflowError, match="leave the int64 range"):
        Lattice(size, Topology.SEGMENT, origin=origin)


def test_lattice_coordinates_reach_both_int64_ends():
    assert Lattice(4, Topology.SEGMENT, origin=2**63 - 4).coords()[-1] == 2**63 - 1
    assert Lattice(2, Topology.SEGMENT, origin=-2**63).coords()[0] == -2**63
    with pytest.raises(OverflowError):
        segment_for(2**63, 2)  # np.arange once wrapped its sites to -2**63 and below


def test_lattice_mismatch_is_rejected():
    prof = make_coin_profile("uniform", seg(), phi=0.1)
    other = localized_state(Lattice(7, Topology.SEGMENT, origin=-4), 0)
    with pytest.raises(LatticeMismatchError):
        apply_coin(other, prof)
    # a walk of 0 steps checks its inputs like a walk of 1 step
    own = make_coin_profile("interface", segment_for(1, 5), phi1=1.29, phi2=0.17)
    wider = make_coin_profile("interface", segment_for(1, 7), phi1=1.29, phi2=0.17)
    state = localized_state(own.lattice, 1)
    primed = to_frame(state, own, Frame.PRIMED)
    for steps in (0, 1):
        with pytest.raises(LatticeMismatchError):
            evolve(state, wider, steps)
        with pytest.raises(ValueError, match="lab-frame"):
            evolve(primed, own, steps)


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
