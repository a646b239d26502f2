"""Single-step discrete-time quantum walk with chiral symmetry and unitary
supersymmetry: real-space dynamics, Floquet-Bloch band analysis, topological
winding numbers, interface midgap states and polarization tomography."""

from .bloch import (BandStructure, BlochOperator, SymmetryReport, WindingReport,
                    band_condition_value, band_structure, bloch_operator,
                    check_symmetries, decay_length, protected_gaps, quadruple_closure_distance,
                    quasi_energies, susy_partners, to_primed, torus_angles,
                    winding_numbers)
from .errors import (BoundaryReachedError, ConfigError, LatticeMismatchError,
                     PhaseTransitionError, ProfileError, SusyqwError,
                     SymmetryViolationError, UnoccupiedSiteError)
from .midgap import (MidgapState, SpectrumResult, anomaly_expectation,
                     cell_z_expectation, coin_y_expectation, find_midgap,
                     full_spectrum, ring_with_interfaces, site_polarization)
from .optics import (BasisIntensities, DensityMatrix, ScanCurve,
                     jitter_intensities, long_time_extrapolation, measure_bases,
                     prepare_input, pure_state_fidelity, qwp_scan, tomography,
                     waveplate)
from .walk import (CoinProfile, Frame, Lattice, Topology, WalkerState,
                   apply_coin, apply_shift, evolve, localized_state,
                   make_coin_profile, one_step_matrix, resize_profile,
                   segment_for, step, to_frame)

__version__ = "0.1.0"

__all__ = [
    "BandStructure", "BasisIntensities", "BlochOperator", "BoundaryReachedError",
    "CoinProfile", "ConfigError", "DensityMatrix", "Frame", "Lattice",
    "LatticeMismatchError", "MidgapState", "PhaseTransitionError", "ProfileError",
    "ScanCurve", "SpectrumResult", "SusyqwError", "SymmetryReport",
    "SymmetryViolationError", "Topology", "UnoccupiedSiteError", "WalkerState",
    "WindingReport", "anomaly_expectation", "apply_coin", "apply_shift",
    "band_condition_value", "band_structure", "bloch_operator",
    "cell_z_expectation", "check_symmetries", "coin_y_expectation", "decay_length",
    "evolve",
    "find_midgap", "full_spectrum", "jitter_intensities", "localized_state",
    "long_time_extrapolation", "make_coin_profile", "measure_bases",
    "one_step_matrix", "prepare_input", "protected_gaps", "pure_state_fidelity",
    "quadruple_closure_distance", "quasi_energies", "qwp_scan", "resize_profile",
    "ring_with_interfaces", "segment_for", "site_polarization", "step",
    "susy_partners", "to_frame", "to_primed", "tomography", "torus_angles",
    "waveplate", "winding_numbers",
]
