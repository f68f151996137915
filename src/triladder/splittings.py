"""Degenerate-perturbation-theory splittings versus exact anticrossing gaps.

At a resonance where the dressed transition (j -> k) matches an odd number of
oscillator quanta, the two product states hybridize and the level splitting is
estimated as twice the magnitude of the rotated-frame derivative-coupling
element between them.  The estimate is evaluated on the dressed resonance
contour; the exact gap comes from minimizing the tracked level distance of the
windowed reference solver along the same line in the (g1, g2) plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import (HERMITE_MAX_N, METHOD_FOCK, METHOD_HERMITE,
                       MatrixElementRequest, v_matrix_element,
                       v_matrix_element_h0)
from .dressed import (_bisect_root, _check_odd, _transition_gap,
                      dressed_transition)
from .errors import ConvergenceError, OffResonanceError, TriladderError
from .fock import anticrossing_gap, central_quantum
from .trilevel import ModelParams


@dataclass(eq=False)
class SplittingRecord:
    """PT and exact splittings of one anticrossing along a coupling line."""

    transition: tuple
    delta_n: int
    line_ratio: float
    g_contour: tuple        # dressed-resonance point on the line
    g_star: tuple           # exact gap minimum
    de_pt: float
    de_exact: float
    ratio: float            # de_pt / de_exact (NaN when either side failed)
    minima: list            # every local gap minimum found, (g1, g2, gap)
    ok: bool
    note: str = ""


def pt_splitting(params: ModelParams, transition, delta_n: int, n: int = None, *,
                 wavefunctions: str = "h0", resonance_tol: float = 1e-4) -> float:
    """Splitting estimate 2 |<j,n| V |k,n-delta_n>| at a resonance point.

    The coupling point must satisfy the dressed resonance condition to within
    ``resonance_tol``; anything else raises OffResonanceError since the
    two-state estimate is meaningless off resonance.

    ``wavefunctions`` selects the oscillator factors: "h0" (default) uses the
    eigenfunctions of the rotated single-level problem, which is what the
    degenerate two-state estimate calls for and what reproduces the exact
    gaps; "oscillator" uses bare oscillator eigenfunctions, which for
    far-multiphoton elements can be orders of magnitude too small because the
    element is exponentially sensitive to the distortion of the states.
    """
    j, k = transition
    _check_odd(delta_n)
    if n is None:
        n = params.n0
    resid = dressed_transition(params, j, k, n, nodes=512) - delta_n
    if abs(resid) > resonance_tol:
        raise OffResonanceError(
            f"point (g1={params.g1:.6f}, g2={params.g2:.6f}) misses the "
            f"({j},{k}) resonance with {delta_n} quanta by {resid:.2e}")
    nb = central_quantum(j, n)
    if wavefunctions == "h0":
        elem = v_matrix_element_h0(params, j, k, nb, nb - delta_n)
    elif wavefunctions == "oscillator":
        method = METHOD_HERMITE if nb <= HERMITE_MAX_N else METHOD_FOCK
        elem = v_matrix_element(params, MatrixElementRequest(j, k, nb, nb - delta_n, method))
    else:
        raise ValueError(f"unknown wavefunction family {wavefunctions!r}")
    return 2.0 * abs(elem)


def contour_point_on_line(template: ModelParams, transition, delta_n: int, *,
                          ratio: float, g1_max: float = 1.05, n: int = None,
                          tol: float = 1e-8):
    """Where the dressed (j,k,delta_n) contour crosses the line g2 = ratio*g1."""
    j, k = transition
    _check_odd(delta_n)
    if n is None:
        n = template.n0

    def f(g1):
        return _transition_gap(template, g1, ratio * g1, (j, k), n, 512) - delta_n

    lo, hi = 1e-6, g1_max
    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise ConvergenceError(
            f"({j},{k}) resonance with {delta_n} quanta does not cross g2={ratio}*g1 "
            f"for g1 <= {g1_max}")
    mid, _ = _bisect_root(f, lo, hi, tol,
                          f"({j},{k}) resonance with {delta_n} quanta on g2={ratio}*g1", flo)
    return mid, ratio * mid


def compare_splittings(template: ModelParams, ratio: float, delta_ns, transition=(1, 2),
                       *, n0: int = None, half_width: int = 400, g1_max: float = 1.05,
                       wavefunctions: str = "h0", mode: str = "pair",
                       vicinity: float = 0.08, scan_points: int = 101) -> list:
    """PT-versus-exact records for every requested quantum exchange.

    Failures of an individual entry (resonance off the line, lost tracking)
    are recorded as invalid entries and the run continues.  Records come back
    sorted by ``delta_n``.
    """
    j, k = transition
    if n0 is None:
        n0 = template.n0
    for dn in delta_ns:
        _check_odd(dn)
    line = ((0.0, 0.0), (g1_max, ratio * g1_max))
    records = []
    for dn in sorted(int(d) for d in delta_ns):
        note = ""
        try:
            gc = contour_point_on_line(template, (j, k), dn, ratio=ratio,
                                       g1_max=g1_max, n=n0)
            at_contour = template.with_couplings(*gc)
            pt = pt_splitting(at_contour, (j, k), dn, n0,
                              wavefunctions=wavefunctions)
            scan = anticrossing_gap(template, line, dn, (j, k), n0, half_width,
                                    mode=mode, vicinity=vicinity,
                                    scan_points=scan_points)
        except TriladderError as err:
            records.append(SplittingRecord((j, k), dn, ratio, (np.nan, np.nan),
                                           (np.nan, np.nan), np.nan, np.nan, np.nan,
                                           [], False, note=str(err)))
            continue
        deep = [m for m in scan.minima if m[2] <= max(3.0 * pt, scan.gap * 1.5)]
        if len(deep) > 1:
            note = f"{len(deep)} gap minima in the scan vicinity"
        records.append(SplittingRecord((j, k), dn, ratio, gc, scan.g_star,
                                       float(pt), float(scan.gap),
                                       float(pt / scan.gap), scan.minima, True,
                                       note=note))
    return records
