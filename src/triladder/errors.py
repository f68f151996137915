"""Exception types shared across the package."""


class TriladderError(Exception):
    """Base class for errors raised by this package."""


class DegenerateLevelsError(TriladderError):
    """Two adiabatic levels are too close for a well-defined eigenbasis.

    Carries the offending coordinate and the level values so callers can
    report where along a scan the problem occurred.
    """

    def __init__(self, y, levels, message=None):
        self.y = y
        self.levels = levels
        if message is None:
            message = f"near-degenerate levels {levels} at y={y}"
        super().__init__(message)


class ConvergenceError(TriladderError):
    """A refinement loop (quadrature nodes, window padding, grid) did not settle."""


class TrackingError(TriladderError):
    """Level identity lost while continuing eigenpairs along a parameter sweep."""


class OffResonanceError(TriladderError):
    """A coupling point that was required to sit on a resonance contour does not."""
