"""Spectra of a three-level ladder system coupled to an oscillator.

The package diagonalizes the three-level block at fixed oscillator
coordinate in closed form, averages the resulting adiabatic levels into
dressed energies, derives the residual couplings of the rotated frame in
closed form from the eigenbasis, and validates everything against exact
diagonalization of the full Hamiltonian on a truncated Fock window.
"""

__version__ = "0.1.0"

from .coupling import coupling_matrix, v_matrix_element, v_matrix_element_h0
from .dressed import (ResonanceContour, contour_arc_crossing, dressed_transition,
                      h0_level_fd, resonance_contour, wkb_levels)
from .errors import (ConvergenceError, DegenerateLevelsError, OffResonanceError,
                     TrackingError, TriladderError)
from .fock import (FockWindowHamiltonian, GapScan, TrackedLevels,
                   anticrossing_gap, build_hamiltonian, eigen_near,
                   exact_dressed_levels, resonance_sharpness_map, track_levels)
from .splittings import (SplittingRecord, compare_splittings,
                         contour_point_on_line, pt_splitting)
from .trilevel import ModelParams, eigenvalues_at, level_matrix

__all__ = [
    "ConvergenceError", "DegenerateLevelsError", "FockWindowHamiltonian", "GapScan",
    "ModelParams", "OffResonanceError", "ResonanceContour", "SplittingRecord", "TrackedLevels",
    "TrackingError", "TriladderError", "anticrossing_gap", "build_hamiltonian",
    "compare_splittings", "contour_arc_crossing", "contour_point_on_line",
    "coupling_matrix", "dressed_transition", "eigen_near", "eigenvalues_at",
    "exact_dressed_levels", "h0_level_fd", "level_matrix", "pt_splitting",
    "resonance_contour", "resonance_sharpness_map", "track_levels",
    "v_matrix_element", "v_matrix_element_h0", "wkb_levels",
]
