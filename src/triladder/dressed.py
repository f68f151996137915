"""Oscillator-averaged (dressed) level energies and resonance contours.

For large quantum number n the spectrum organizes into three dressed levels
plus the oscillator ladder.  The dressed part of level j is the classical
average of the adiabatic energy E_j(y) over the orbit of energy 2n+1, which
the Chebyshev-Gauss rule integrates with the exactly matching weight.  A
brute-force grid solution of the corresponding one-dimensional Schroedinger
problem serves as the independent oracle at moderate n.

Resonance contours in the (g1, g2) plane collect the points where a dressed
transition energy equals an odd number of oscillator quanta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, TrackingError
from .trilevel import ModelParams, eigenvalues_at

WKB_DEFAULT_NODES = 256
_WKB_TOL = 1e-9
_WKB_MAX_DOUBLINGS = 8

#: contour points must satisfy the resonance condition to this residual
CONTOUR_RESIDUAL = 1e-6

#: halvings a bracketed root search may take before it gives up
_MAX_BISECTIONS = 200


@dataclass(frozen=True, eq=False)
class DressedLevel:
    """One dressed level energy, excluding the n*hbar_omega0 ladder offset."""

    j: int
    n: int
    energy: float
    method: str


@dataclass(frozen=True, eq=False)
class ResonanceContour:
    """Points in the (g1, g2) quadrant where a transition matches delta_n quanta.

    ``points`` is ordered by ray angle (and by radius within a ray when a ray
    crosses the contour more than once).  ``angles`` are the corresponding ray
    angles, ``residuals`` the verified values of the resonance mismatch, and
    ``multiple`` flags points that share a ray with another root.
    ``missed_angles`` lists rays that never bracketed the contour.
    """

    transition: tuple
    delta_n: int
    points: np.ndarray
    angles: np.ndarray
    residuals: np.ndarray
    multiple: np.ndarray
    missed_angles: np.ndarray


def _check_level(j):
    if j not in (1, 2, 3):
        raise ValueError(f"level index must be 1, 2 or 3, got {j}")


def _check_transition(transition):
    """``(j, k)`` when it names levels 1 <= j < k <= 3, else ValueError."""
    j, k = transition
    _check_level(j)
    _check_level(k)
    if j >= k:
        raise ValueError("transition must be ordered (lower, upper)")
    return j, k


def _check_odd(delta_n):
    if delta_n % 2 == 0 or delta_n <= 0:
        raise ValueError(f"only odd positive quantum exchange is resonant, got {delta_n}")


def _bisect_root(f, lo, hi, tol, what, flo=None):
    """Bisect a sign change of ``f`` on [lo, hi] until |f(mid)| <= tol.

    Returns ``(mid, f(mid))``; ``flo`` is f(lo) when the caller already has
    it.  Raises ConvergenceError naming ``what`` when the halvings run out.
    """
    if flo is None:
        flo = f(lo)
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol:
            return mid, fm
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    raise ConvergenceError(
        f"{what} not within {tol:.1e} after {_MAX_BISECTIONS} bisections; "
        f"last residual {fm:.3e} at {float(mid)!r}")


def _wkb_average(params, n, nodes):
    """Average of all three adiabatic levels over the classical orbit."""
    eps = 2.0 * float(n) + 1.0
    theta = (2.0 * np.arange(1, nodes + 1) - 1.0) * np.pi / (2.0 * nodes)
    y = math.sqrt(eps) * np.cos(theta)
    return eigenvalues_at(params, y).mean(axis=0)


def wkb_levels(params: ModelParams, n: int = None, nodes: int = WKB_DEFAULT_NODES,
               tol: float = _WKB_TOL) -> np.ndarray:
    """All three dressed energies at once, with node-doubling control.

    Doubles the Chebyshev-Gauss node count until the result moves by less
    than ``tol``; raises ConvergenceError if that never happens.
    """
    if n is None:
        n = params.n0
    if nodes < 16:
        raise ValueError("need at least 16 quadrature nodes")
    value = _wkb_average(params, n, nodes)
    for _ in range(_WKB_MAX_DOUBLINGS):
        nodes *= 2
        new = _wkb_average(params, n, nodes)
        if np.max(np.abs(new - value)) <= tol:
            return new
        value = new
    raise ConvergenceError(f"dressed-level quadrature did not settle to {tol}")


def wkb_dressed_energy(params: ModelParams, j: int, n: int = None,
                       nodes: int = WKB_DEFAULT_NODES) -> DressedLevel:
    """Dressed energy of level ``j`` from the classical-orbit average."""
    _check_level(j)
    if n is None:
        n = params.n0
    return DressedLevel(j, int(n), float(wkb_levels(params, n, nodes)[j - 1]), "wkb")


def dressed_transition(params: ModelParams, j: int, k: int, n: int = None,
                       nodes: int = WKB_DEFAULT_NODES, tol: float = _WKB_TOL) -> float:
    """Dressed transition energy E_k - E_j (both from the orbit average).

    A looser ``tol`` helps when a fully decoupled level crosses another one
    inside the classical range: the sorted-level average is then kinked and
    the quadrature converges only algebraically.
    """
    _check_level(j)
    _check_level(k)
    if j == k:
        return 0.0
    if n is None:
        n = params.n0
    levels = wkb_levels(params, n, nodes, tol=tol)
    return float(levels[k - 1] - levels[j - 1])


# ---------------------------------------------------------------------------
# brute-force one-dimensional oracle


def _sinc_kinetic(npts, dx):
    """Infinite-order symmetric central-difference Laplacian (times -1/2).

    Entries of (1/2) * (-d^2/dy^2) discretized on a uniform grid; exact for
    band-limited functions up to the grid Nyquist wavenumber pi/dx.
    """
    i = np.arange(npts)
    diff = i[:, None] - i[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(diff == 0, np.pi**2 / 3.0, 2.0 * (-1.0) ** diff / diff.astype(float) ** 2)
    return t / (2.0 * dx * dx)


def _count_nodes(vec):
    """Sign changes of a grid eigenfunction.

    Samples below 1e-6 of the peak are ignored: the sinc basis rings at about
    1e-8 relative in the classically forbidden region, while genuine lobes
    keep at least one sample far above this cut.
    """
    keep = np.abs(vec) > 1e-6 * np.max(np.abs(vec))
    s = np.sign(vec[keep])
    return int(np.sum(s[1:] * s[:-1] < 0))


def h0_level_fd(params: ModelParams, j: int, n: int) -> DressedLevel:
    """Dressed level from a grid solution of the one-dimensional problem.

    Solves (E + 1/2) u = [E_j(y) + (1/2)(-d^2/dy^2 + y^2)] u on a uniform
    grid, picks the eigenfunction with exactly ``n`` sign changes, and
    subtracts the ladder offset.  The grid spacing is set from the local
    momentum at the target energy (1.15 times the Nyquist rate) and the
    extent from where the potential exceeds the target by a margin of 10.

    The solve is repeated on a finer grid and a shift above 1e-6 raises
    ConvergenceError.
    """
    _check_level(j)
    if n < 0 or n > 2000:
        raise ValueError("the brute-force route supports 0 <= n <= 2000")

    ej = [params.e1, params.e2, params.e3][j - 1]
    padding = 10.0

    def solve(stretch):
        # probe the potential to size the grid
        probe = np.linspace(-1.0, 1.0, 801) * (math.sqrt(2.0 * n + 1.0) + 40.0)
        vprobe = eigenvalues_at(params, probe)[:, j - 1] + 0.5 * probe**2
        vmin = float(vprobe.min())
        target = ej + n + 0.5
        bound = max(target, vmin + n + 1.0) + 6.0
        turning = np.abs(probe[vprobe <= bound + padding])
        extent = turning.max() if turning.size else abs(probe[-1])
        extent = max(extent, math.sqrt(2.0 * n + 1.0) * 0.5 + padding) + padding
        kmax = math.sqrt(2.0 * max(bound - vmin, 1.0))
        dx = np.pi / (1.15 * stretch * kmax)
        npts = int(2 * extent / dx) + 1
        y = (np.arange(npts) - (npts - 1) / 2.0) * dx
        pot = eigenvalues_at(params, y)[:, j - 1] + 0.5 * y * y
        h = _sinc_kinetic(npts, dx)
        h[np.diag_indices(npts)] += pot
        lo = max(n - 2, 0)
        vals, vecs = scipy.linalg.eigh(h, subset_by_index=[lo, n + 2])
        for idx in range(vals.size):
            if _count_nodes(vecs[:, idx]) == n:
                return float(vals[idx])
        raise TrackingError(f"no grid eigenfunction with {n} nodes near index {n}")

    lam = solve(1.0)
    lam_fine = solve(1.35)
    if abs(lam_fine - lam) > 1e-6:
        raise ConvergenceError(
            f"grid eigenvalue moved by {abs(lam_fine - lam):.2e} on refinement")
    return DressedLevel(j, int(n), lam_fine - 0.5 - n, "fd")


# ---------------------------------------------------------------------------
# resonance contours


def _transition_gap(template, g1, g2, jk, n, nodes):
    p = template.with_couplings(g1, g2)
    levels = _wkb_average(p, n, nodes)
    return levels[jk[1] - 1] - levels[jk[0] - 1]


def _scan_grid(radius, points):
    """Radii biased toward the origin so contours that terminate there are seen."""
    dense = np.geomspace(1e-4, radius / 10.0, points // 3)
    coarse = np.linspace(radius / 10.0, radius, points - points // 3 + 1)[1:]
    return np.concatenate([dense, coarse])


def resonance_contour(template: ModelParams, transition, delta_n: int, *,
                      angles=None, radius: float = 1.25, scan_points: int = 160,
                      n: int = None, nodes: int = WKB_DEFAULT_NODES,
                      residual_tol: float = CONTOUR_RESIDUAL) -> ResonanceContour:
    """Locate the (j, k, delta_n) resonance contour on a fan of rays.

    Along each ray from the origin, the sign changes of
    (dressed transition) - delta_n are bracketed on a radius grid and polished
    by bisection.  Every accepted point is re-verified with the quadrature
    node count doubled; a point that fails the check is bisected again at
    the doubled count.  Rays without a bracket are reported, not fatal.
    """
    j, k = _check_transition(transition)
    _check_odd(delta_n)
    if n is None:
        n = template.n0
    if angles is None:
        angles = np.linspace(0.0, np.pi / 2.0, 181)
    angles = np.asarray(angles, dtype=float)

    ts = _scan_grid(radius, scan_points)
    pts, angs, resid, multi, missed = [], [], [], [], []

    for phi in angles:
        c, s = math.cos(phi), math.sin(phi)

        def f(t, quad_nodes=nodes):
            return _transition_gap(template, t * c, t * s, (j, k), n, quad_nodes) - delta_n

        def polish(a, b, fa):
            quad = nodes
            for _ in range(_WKB_MAX_DOUBLINGS):
                mid, _ = _bisect_root(lambda t: f(t, quad), a, b, residual_tol,
                                      f"contour point on ray {phi}", fa)
                if abs(f(mid, 2 * quad)) <= residual_tol:
                    return mid
                quad, fa = 2 * quad, None
            raise ConvergenceError(f"contour point on ray {phi} fails the doubled-node check")

        vals = np.array([f(t) for t in ts])
        sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        roots = [ts[i] for i in np.nonzero(vals == 0.0)[0]]
        roots += [polish(ts[i], ts[i + 1], vals[i]) for i in sign_change]
        if not roots:
            missed.append(phi)
            continue
        for t in sorted(roots):
            pts.append((t * c, t * s))
            angs.append(phi)
            resid.append(f(t, 2 * nodes))
            multi.append(len(roots) > 1)

    return ResonanceContour((j, k), int(delta_n),
                            np.array(pts).reshape(-1, 2), np.array(angs),
                            np.array(resid), np.array(multi, dtype=bool),
                            np.array(missed))


def contour_arc_crossing(template: ModelParams, transition, delta_n: int,
                         radius: float, *, n: int = None, nodes: int = 512,
                         residual_tol: float = CONTOUR_RESIDUAL):
    """Point where a resonance contour crosses the arc of a given radius.

    Bisects on the polar angle at fixed radius.  Useful for contours that
    terminate at the origin, where radial scans of any fixed ray fan stop
    resolving them.  Returns ``((g1, g2), residual)`` or raises
    ConvergenceError when the arc is not crossed or the bisection runs out.
    """
    j, k = _check_transition(transition)
    _check_odd(delta_n)
    if n is None:
        n = template.n0

    def f(phi):
        return _transition_gap(template, radius * math.cos(phi), radius * math.sin(phi),
                               (j, k), n, nodes) - delta_n

    lo, hi = 0.0, math.pi / 2.0
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return (radius, 0.0), 0.0
    if fhi == 0.0:
        return (0.0, radius), 0.0
    if flo * fhi > 0:
        raise ConvergenceError(
            f"contour ({j},{k},{delta_n}) does not cross the arc of radius {radius}")
    mid, fm = _bisect_root(f, lo, hi, residual_tol * 1e-3,
                           f"contour ({j},{k},{delta_n}) on the arc of radius {radius}", flo)
    return (radius * math.cos(mid), radius * math.sin(mid)), float(fm)
