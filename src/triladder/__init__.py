"""Spectra of a three-level ladder system coupled to an oscillator.

The package diagonalizes the three-level block at fixed oscillator
coordinate in closed form, averages the resulting adiabatic levels into
dressed energies, derives the residual couplings of the rotated frame in
closed form from the eigenbasis, and validates everything against exact
diagonalization of the full Hamiltonian on a truncated Fock window.

Public names are resolved on first use (PEP 562), so importing the package
loads no submodule: the kernel, the orbit averages and the contours need
only numpy, and scipy is imported with the Fock-window and coupling layers.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "coupling": ("coupling_matrix", "h0_level_fd", "v_matrix_element",
                 "v_matrix_element_h0"),
    "dressed": ("ResonanceContour", "contour_arc_crossing", "dressed_transition",
                "resonance_contour", "wkb_levels"),
    "errors": ("ConvergenceError", "DegenerateLevelsError", "OffResonanceError",
               "TrackingError", "TriladderError"),
    "fock": ("FockWindowHamiltonian", "GapScan", "TrackedLevels", "anticrossing_gap",
             "build_hamiltonian", "eigen_near", "exact_dressed_levels",
             "resonance_sharpness_map", "track_levels"),
    "splittings": ("SplittingRecord", "compare_splittings", "contour_point_on_line",
                   "pt_splitting"),
    "trilevel": ("ModelParams", "eigenvalues_at", "level_matrix"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # looked up on every access, never cached here: a name rebound in its
    # submodule (as the benchmark's tracing does) is seen at once
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
