"""Degenerate-perturbation-theory splittings versus exact anticrossing gaps.

At a resonance where the dressed transition (j -> k) matches an odd number of
oscillator quanta, the two product states hybridize and the level splitting is
estimated as twice the magnitude of the derivative-coupling element between
the rotated-frame eigenstates of the two levels.  The exact gap comes from
minimizing the tracked level distance of the windowed reference solver along
a line g2 = ratio * g1; the same gap scan locates the dressed resonance on
that line once, and the estimate is evaluated there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import v_matrix_element_h0
from .dressed import _check_odd, _line_resonance, dressed_transition
from .errors import OffResonanceError, TriladderError
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


def pt_splitting(params: ModelParams, transition, delta_n: int, *,
                 resonance_tol: float = 1e-4) -> float:
    """Splitting estimate 2 |<j,n| V |k,n-delta_n>| at a resonance point.

    The oscillator factors are the eigenfunctions of the rotated single-level
    problem around n = ``params.n0`` (see ``v_matrix_element_h0``): bare
    oscillator eigenfunctions underestimate far-multiphoton elements by orders
    of magnitude, because the element is exponentially sensitive to the
    distortion of the states.

    The coupling point must satisfy the dressed resonance condition to within
    ``resonance_tol``; anything else raises OffResonanceError since the
    two-state estimate is meaningless off resonance.
    """
    j, k = transition
    _check_odd(delta_n)
    n = params.n0
    resid = dressed_transition(params, j, k, n, nodes=512) - delta_n
    if abs(resid) > resonance_tol:
        raise OffResonanceError(
            f"point (g1={params.g1:.6f}, g2={params.g2:.6f}) misses the "
            f"({j},{k}) resonance with {delta_n} quanta by {resid:.2e}")
    nb = central_quantum(j, n)
    return 2.0 * abs(v_matrix_element_h0(params, j, k, nb, nb - delta_n))


def contour_point_on_line(template: ModelParams, transition, delta_n: int, *,
                          ratio: float, g1_max: float = 1.05):
    """Where the dressed (j,k,delta_n) contour crosses the line g2 = ratio*g1.

    The same search ``anticrossing_gap`` runs on the line to
    (g1_max, ratio * g1_max), so the point equals its ``g_contour``.
    """
    _check_odd(delta_n)
    end = np.array([g1_max, ratio * g1_max])
    g = _line_resonance(template, end, transition, delta_n, template.n0) * end
    return float(g[0]), float(g[1])


def compare_splittings(template: ModelParams, ratio: float, delta_ns, transition=(1, 2),
                       *, half_width: int = 400, g1_max: float = 1.05,
                       mode: str = "pair", vicinity: float = 0.08,
                       scan_points: int = 101) -> list:
    """PT-versus-exact records for every requested quantum exchange.

    The gap scan of each exchange locates the dressed resonance on the line
    g2 = ratio*g1 up to ``g1_max`` (its ``g_contour``), and the two-state
    estimate is evaluated at that point.  Failures of an individual entry
    (resonance off the line, lost tracking) are recorded as invalid entries
    and the run continues.  Records come back sorted by ``delta_n``.
    """
    j, k = transition
    for dn in delta_ns:
        _check_odd(dn)
    line = ((0.0, 0.0), (g1_max, ratio * g1_max))
    records = []
    for dn in sorted(int(d) for d in delta_ns):
        note = ""
        try:
            scan = anticrossing_gap(template, line, dn, (j, k), template.n0, half_width,
                                    mode=mode, vicinity=vicinity,
                                    scan_points=scan_points)
            pt = pt_splitting(template.with_couplings(*scan.g_contour), (j, k), dn)
        except TriladderError as err:
            records.append(SplittingRecord((j, k), dn, ratio, (np.nan, np.nan),
                                           (np.nan, np.nan), np.nan, np.nan, np.nan,
                                           [], False, note=str(err)))
            continue
        deep = [m for m in scan.minima if m[2] <= max(3.0 * pt, scan.gap * 1.5)]
        if len(deep) > 1:
            note = f"{len(deep)} gap minima in the scan vicinity"
        records.append(SplittingRecord((j, k), dn, ratio, scan.g_contour, scan.g_star,
                                       float(pt), float(scan.gap),
                                       float(pt / scan.gap), scan.minima, True,
                                       note=note))
    return records
