import ast
import dataclasses
import inspect
import re
import textwrap

import numpy as np
import pytest

from susyqw import (Frame, Lattice, PhaseTransitionError, SymmetryViolationError,
                    Topology, band_condition_value, band_structure, bloch_operator,
                    check_symmetries, full_spectrum, make_coin_profile,
                    protected_gaps, quadruple_closure_distance, quasi_energies,
                    susy_partners, to_primed, torus_angles, winding_numbers)
from susyqw import bloch
from susyqw.bloch import _lift

from helpers import (ID2, SY, SZ, bloch_oracle, multiset_distance, ring_bloch_state,
                     torus_oracle)

CELL_Z = np.kron(SZ, ID2)
COIN_Y = np.kron(ID2, SY)


def random_triples(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 2 * np.pi, (n, 3))


def test_zero_angles_zero_momentum_is_sublattice_swap():
    u = bloch_operator(0.0, 0.0, 0.0).matrix
    expected = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    np.testing.assert_allclose(u, expected, atol=1e-15)


@pytest.mark.parametrize("frame", [Frame.LAB, Frame.PRIMED])
def test_unitarity_and_block_structure(frame):
    for k, p1, p2 in random_triples(20, seed=1):
        u = bloch_operator(k, p1, p2, frame).matrix
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        assert np.all(u[:2, :2] == 0) and np.all(u[2:, 2:] == 0)


def test_bloch_operator_matrix_is_a_read_only_copy():
    given = bloch_operator(0.8, 1.29, 0.17).matrix.copy()
    op = bloch.BlochOperator(given, 0.8, 1.29, 0.17, Frame.LAB)
    given[0, 2] = np.nan
    np.testing.assert_array_equal(op.matrix, bloch_operator(0.8, 1.29, 0.17).matrix)
    for made in (op, bloch_operator(0.8, 1.29, 0.17, Frame.PRIMED)):
        with pytest.raises(ValueError, match="read-only"):
            made.matrix[0, 2] = 1.0


def test_band_condition_at_k_zero_reduces_to_angle_sum():
    bands = band_structure(1.0, 0.2, k_grid=np.array([0.0]))
    eps = np.sort(bands.quasienergies[0])
    expected = np.sort(np.mod([0.6, -0.6, np.pi + 0.6, np.pi - 0.6], 2 * np.pi))
    np.testing.assert_allclose(eps, expected, atol=1e-10)


def test_band_condition_residual_generic_k():
    bands = band_structure(1.0, 0.2, resolution=257)
    lam2 = bands.eigenvalues ** 2
    target = band_condition_value(bands.k_grid, 1.0, 0.2)
    assert np.abs(lam2.real - target[:, None]).max() < 1e-10


def test_gap_closes_at_equal_angles():
    bands = band_structure(0.7, 0.7, k_grid=np.array([np.pi]))
    lam = bands.eigenvalues[0]
    assert min(abs(lam - 1j).min(), abs(lam + 1j).min()) < 1e-8
    assert bands.gap_at_imag() < 1e-8


def test_eigenvalue_quadruple_closure():
    for k, p1, p2 in random_triples(20, seed=2):
        bands = band_structure(p1, p2, k_grid=np.array([k]))
        assert quadruple_closure_distance(bands.eigenvalues[0]) < 1e-10


def test_unit_modulus_eigenvalues():
    bands = band_structure(1.29, 0.17, resolution=256)
    assert np.abs(np.abs(bands.eigenvalues) - 1).max() < 1e-10


@pytest.mark.parametrize("k,p1,p2", [(1.0, 1.29, 0.17), (0.3, 0.0, 0.0)])
def test_symmetry_residuals_examples(k, p1, p2):
    rep = check_symmetries(bloch_operator(k, p1, p2, Frame.PRIMED))
    assert rep.chiral_residual < 1e-12
    assert rep.susy_residual < 1e-12


def test_symmetry_residuals_random_sweep():
    worst = 0.0
    for k, p1, p2 in random_triples(20, seed=3):
        rep = check_symmetries(bloch_operator(k, p1, p2, Frame.PRIMED))
        worst = max(worst, rep.chiral_residual, rep.susy_residual)
    assert worst < 1e-12


def test_lab_frame_operator_is_transformed_before_check():
    op = bloch_operator(0.8, 1.29, 0.17, Frame.LAB)
    rep = check_symmetries(op)
    assert rep.chiral_residual < 1e-12 and rep.susy_residual < 1e-12
    primed = to_primed(op)
    direct = bloch_operator(0.8, 1.29, 0.17, Frame.PRIMED)
    np.testing.assert_allclose(primed.matrix, direct.matrix, atol=1e-12)


@pytest.mark.parametrize("mu", [np.nan, 1 + 1e-9, 0.5j], ids=["nan", "outside", "inside"])
def test_lift_rejects_eigenvalues_off_the_unit_circle(mu):
    vec, psi = np.ones((1, 1), dtype=complex), np.empty((1, 2, 1), dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        _lift(np.array([mu], dtype=complex), vec, vec, psi, psi)


def test_susy_partner_factorization_and_spectra():
    for k, p1, p2 in random_triples(10, seed=4):
        u = bloch_operator(k, p1, p2).matrix
        a, b = susy_partners(k, p1, p2)
        square = np.zeros((4, 4), dtype=complex)
        square[:2, :2], square[2:, 2:] = a, b
        np.testing.assert_allclose(u @ u, square, atol=1e-12)
        ev_a, ev_b = np.linalg.eigvals(a), np.linalg.eigvals(b)
        assert multiset_distance(ev_a, ev_b) < 1e-10
        lam = np.linalg.eigvals(u)
        assert multiset_distance(np.concatenate([ev_a, ev_b]), lam ** 2) < 1e-10


def test_torus_radii_and_symmetry_expectations():
    for k, p1, p2 in random_triples(20, seed=5):
        if abs(np.sin(p1 - p2)) < 0.1 or abs(np.sin(p1 + p2)) < 0.1:
            continue  # stay away from gap closings
        bands = band_structure(p1, p2, k_grid=np.array([k]))
        for b in range(4):
            v = bands.eigenvectors[0][:, b]
            torus_angles(v, radius_tol=1e-8)  # raises if any pair radius is off 1
            for op in (COIN_Y, CELL_Z, CELL_Z @ COIN_Y):
                assert abs(np.vdot(v, op @ v).real) < 1e-10


def test_torus_angles_reject_gap_closing_state():
    # at phi1 = phi2, k = pi the +-i eigenspaces are 2-dim; the anomaly
    # eigenstate inside (w = +1) has a vanishing alpha-pair radius
    bands = band_structure(0.7, 0.7, k_grid=np.array([np.pi]))
    sel = np.abs(bands.eigenvalues[0] - 1j) < 1e-8
    assert sel.sum() == 2
    q, _ = np.linalg.qr(bands.eigenvectors[0][:, sel])
    wmat = q.conj().T @ (CELL_Z @ COIN_Y) @ q
    _, rot = np.linalg.eigh((wmat + wmat.conj().T) / 2)
    anomalous = (q @ rot)[:, -1]
    with pytest.raises(SymmetryViolationError):
        torus_angles(anomalous)


@pytest.mark.parametrize("frame", [Frame.LAB, Frame.PRIMED])
@pytest.mark.parametrize("phi1, phi2", [(0.7, 0.7), (np.pi / 2, np.pi / 2)])
def test_band_eigenvectors_are_orthonormal_at_gap_closings(phi1, phi2, frame):
    # the partner walk has a double eigenvalue at k = pi (grid point 32) for
    # phi1 = phi2 and at every k for phi1 = phi2 = pi/2
    ks = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    assert ks[32] == np.pi
    bands = band_structure(phi1, phi2, k_grid=ks, frame=frame)
    vecs = bands.eigenvectors
    gram = np.swapaxes(vecs.conj(), 1, 2) @ vecs
    assert np.linalg.norm(gram - np.eye(4), ord=2, axis=(1, 2)).max() <= 1e-12
    u = bloch_oracle(ks, phi1, phi2, primed=frame is Frame.PRIMED)
    residual = np.linalg.norm(u @ vecs - vecs * bands.eigenvalues[:, None, :], axis=1)
    assert residual.max() <= 1e-12


@pytest.mark.parametrize("vec", [[1.0, 0, 0, 0], [0.0, 0, 0, 0],
                                 [np.nan, 0, 0, 0], [np.inf, 0, 0, 0]],
                         ids=["basis", "zero", "nan", "inf"])
def test_torus_angles_reject_non_eigenstate(vec):
    v = np.array(vec, dtype=complex)
    good = band_structure(1.29, 0.17, k_grid=np.array([0.4])).eigenvectors[0].T
    for state in (v, np.vstack([good, v])):
        with pytest.raises(SymmetryViolationError):
            torus_angles(state)
        # the 4x4 operator expectations find a pair radius off 1 (or NaN) too
        assert not (np.abs(torus_oracle(state)[1] - 1.0) <= 1e-6).all()


def test_torus_angles_of_a_stack_match_single_vectors():
    bands = band_structure(1.29, 0.17, resolution=8)
    stack = np.swapaxes(bands.eigenvectors, 1, 2)
    angles = torus_angles(stack)
    assert angles.shape == (8, 4, 3)
    single = [[torus_angles(v) for v in row] for row in stack]
    np.testing.assert_allclose(angles, single, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_cells", [4, 8, 16])
def test_bloch_momenta_reproduce_ring_spectrum(n_cells):
    p1, p2 = 1.29, 0.17
    lat = Lattice(2 * n_cells, Topology.RING)
    prof = make_coin_profile("bulk", lat, phi1=p1, phi2=p2)
    ring = full_spectrum(prof).eigenvalues
    blochs = []
    for m in range(n_cells):
        bands = band_structure(p1, p2, k_grid=np.array([2 * np.pi * m / n_cells]),
                               frame=Frame.LAB)
        blochs.append(bands.eigenvalues[0])
    assert multiset_distance(ring, np.concatenate(blochs)) < 1e-9


def test_ring_bloch_state_is_ring_eigenstate():
    # validates the unit-cell convention behind the Bloch operator
    n_cells, m = 6, 2
    p1, p2 = 1.1, 0.4
    bands = band_structure(p1, p2, k_grid=np.array([2 * np.pi * m / n_cells]),
                           frame=Frame.LAB)
    lam, v = bands.eigenvalues[0][1], bands.eigenvectors[0][:, 1]
    lat = Lattice(2 * n_cells, Topology.RING)
    prof = make_coin_profile("bulk", lat, phi1=p1, phi2=p2)
    from susyqw import one_step_matrix
    amps = ring_bloch_state(v, n_cells, m)
    residual = one_step_matrix(prof) @ amps.ravel() - lam * amps.ravel()
    assert np.abs(residual).max() < 1e-10


def test_winding_differs_across_angle_swap():
    fwd = winding_numbers(1.29, 0.17, 512)
    rev = winding_numbers(0.17, 1.29, 512)
    assert any(a != b for a, b in zip(fwd.windings, rev.windings))
    assert max(fwd.residuals) < 1e-6 and max(rev.residuals) < 1e-6


def test_winding_stable_under_resolution_doubling():
    lo = winding_numbers(1.0, 0.2, 512)
    hi = winding_numbers(1.0, 0.2, 1024)
    assert lo.windings == hi.windings
    assert max(hi.residuals) < 1e-6


def test_gap_closing_keeps_quasi_energy_order():
    # touching bands stay sorted by quasi-energy instead of following the crossing
    bands = band_structure(0.7, 0.7, resolution=511)
    assert np.all(np.diff(bands.quasienergies, axis=1) >= 0)
    for k, lam in zip(bands.k_grid, bands.eigenvalues):
        ref = np.linalg.eigvals(bloch_operator(k, 0.7, 0.7, Frame.PRIMED).matrix)
        assert multiset_distance(lam, ref) <= 1e-12
    # an odd grid misses k = pi, where the gap closes; the analytic gap still sees it
    with pytest.raises(PhaseTransitionError):
        winding_numbers(0.7, 0.7 - 1e-8, 511)


def test_winding_rejects_phase_transition():
    with pytest.raises(PhaseTransitionError):
        winding_numbers(0.7, 0.7 - 1e-8, 512)


def test_winding_requires_resolution():
    with pytest.raises(ValueError):
        winding_numbers(1.29, 0.17, 64)


@pytest.mark.parametrize("solve", [band_structure, bloch._band_energies],
                         ids=["eigenpairs", "eigenvalues"])
@pytest.mark.parametrize("k_grid", [[0.0, np.nan], [np.nan, 0.0], [0.0, np.inf], [np.inf]],
                         ids=["nan-last", "nan-first", "inf-last", "inf-only"])
def test_band_solves_reject_a_non_finite_k_grid(k_grid, solve):
    # NaN compares false, so [nan, 0] passes the sorted check; it must not reach LAPACK
    with pytest.raises(ValueError, match="k grid must be finite"):
        solve(1.29, 0.17, k_grid=np.array(k_grid))


def test_protected_gaps_match_band_minimum():
    for p1, p2 in [(1.29, 0.17), (1.0, 0.2), (0.9, 0.4)]:
        gap_real, gap_imag = protected_gaps(p1, p2)
        bands = band_structure(p1, p2, resolution=2048)
        assert bands.gap_at_real() == pytest.approx(gap_real, abs=1e-4)
        assert bands.gap_at_imag() == pytest.approx(gap_imag, abs=1e-4)


def test_gap_at_imag_vanishes_as_angles_merge():
    deltas = np.logspace(-1, -6, 10)
    gaps = [protected_gaps(0.9, 0.9 - d)[1] for d in deltas]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6
    # arccos near -1 amplifies rounding by 1/sqrt; absolute accuracy stays tight
    np.testing.assert_allclose(gaps, deltas / 2, atol=1e-10)


def test_band_connectivity_is_smooth():
    bands = band_structure(1.29, 0.17, resolution=512)
    eps = np.unwrap(bands.quasienergies, axis=0)
    assert np.abs(np.diff(eps, axis=0)).max() < 0.05
    overlaps = np.abs(np.einsum("kab,kab->kb",
                                bands.eigenvectors[:-1].conj(),
                                bands.eigenvectors[1:]))
    assert overlaps.min() > 0.999


def test_quasi_energy_definition():
    lam = np.exp(-1j * np.array([0.3, 2.0, 4.0]))
    np.testing.assert_allclose(quasi_energies(lam), [0.3, 2.0, 4.0], atol=1e-12)


def test_winding_loop_near_2_63_points_is_unallocatable():
    # near 2**63 points np.linspace returns an empty array rather than raising MemoryError
    with pytest.raises(MemoryError,
                       match="cannot allocate a k grid of 9223372036854775806 points"):
        winding_numbers(1.29, 0.17, 2**63 - 2)


def test_winding_gaps_are_the_bands_grid_gaps_bit_for_bit():
    """``winding`` reads its gap notes on the ``bands`` grid, even and odd resolutions alike."""
    for r in (256, 257, 1000, 2048, 4097):
        report = winding_numbers(1.29, 0.17, r)
        grid = bloch._band_energies(1.29, 0.17, resolution=r)
        assert (report.gap_at_real, report.gap_at_imag) == (grid.gap_at_real(), grid.gap_at_imag())


# what ``bands``, ``winding`` and ``band_structure`` run from the k grid to the sorted bands
BAND_PATH = (bloch._bloch_blocks, bloch._matmul2, bloch._partner_eigvals,
             bloch._partner_eigvecs, bloch._lift_values, bloch._lift, bloch._by_quasienergy,
             bloch._band_energies, bloch.band_structure, bloch.winding_numbers)


@pytest.mark.parametrize("func", BAND_PATH, ids=lambda func: func.__name__)
def test_band_path_has_no_batched_matmul(func):
    """The 2x2 products of the band path are written out entry by entry, never a batched ``@``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))


def test_band_structure_keeps_a_copy_of_its_k_grid():
    ks = np.linspace(0.0, np.pi, 9)
    bands = band_structure(1.29, 0.17, k_grid=ks)
    ks[0] = 0.5
    assert bands.k_grid is not ks and bands.k_grid[0] == 0.0


@pytest.mark.parametrize("solve, fields", [
    (band_structure, ("k_grid", "eigenvalues", "quasienergies", "eigenvectors")),
    (bloch._band_energies, ("k_grid", "eigenvalues", "quasienergies")),
], ids=["band_structure", "band_energies"])
def test_band_results_are_read_only(solve, fields):
    bands = solve(1.29, 0.17, resolution=8)
    for field in fields:
        with pytest.raises(ValueError, match="read-only"):
            getattr(bands, field)[0] = 0


@pytest.mark.parametrize("cls", [bloch._BandEnergies, bloch.BandStructure],
                         ids=["band_energies", "band_structure"])
def test_band_results_own_their_data(cls):
    """A result keeps read-only copies of its arrays: float k and quasi-energies, else complex."""
    ref = band_structure(1.29, 0.17, resolution=8)
    names = [field.name for field in dataclasses.fields(cls)]
    given = [np.array(getattr(ref, name)) for name in names]
    bands = cls(*given)
    for array in given:
        array[...] = 0
    for name in names:
        assert np.array_equal(getattr(bands, name), getattr(ref, name))
        assert getattr(bands, name).dtype == getattr(ref, name).dtype
        with pytest.raises(ValueError, match="read-only"):
            getattr(bands, name)[...] = 0
    assert cls(*(array.real.astype(int) for array in given)).eigenvalues.dtype == complex


@pytest.mark.parametrize("call, exc, fragment", [
    (lambda: band_structure(1.29, 0.17, k_grid=[]), ValueError, "k grid is empty"),
    (lambda: bloch._band_energies(1.29, 0.17, k_grid=np.empty(0)), ValueError,
     "k grid is empty"),
    (lambda: band_structure(1.29, 0.17, k_grid=[0.0, 1.0, 0.5]), ValueError,
     "k grid must be sorted"),
    (lambda: bloch._band_energies(1.29, 0.17, k_grid=[1.0, 0.0]), ValueError,
     "k grid must be sorted"),
    (lambda: torus_angles(np.ones(3)), ValueError, "expected a 4-component Bloch eigenvector"),
    (lambda: torus_angles(np.ones((2, 5))), ValueError, "4-component"),
    (lambda: torus_angles(1.0), ValueError, "4-component"),
], ids=["empty-eig", "empty-eigvals", "unsorted-eig", "unsorted-eigvals", "torus-3",
        "torus-stack-5", "torus-scalar"])
def test_documented_raises(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)):
        call()
