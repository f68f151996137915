"""Oscillator-averaged (dressed) level energies and resonance contours.

For large quantum number n the spectrum organizes into three dressed levels
plus the oscillator ladder.  The dressed part of level j is the classical
average of the adiabatic energy E_j(y) over the orbit of energy 2n+1, which
the Chebyshev-Gauss rule integrates with the exactly matching weight.  Every
orbit average goes through one batched route, ``_orbit_levels``, which
evaluates the cubic of ``trilevel`` for many coupling points at once on half
the (symmetric) nodes.  The three branches of the cubic are linear in
amp sin(phi) and amp cos(phi) of its trigonometric form, so the route sums
only those two over the nodes and forms the three levels from the sums.
A brute-force grid solution of the corresponding one-dimensional
Schroedinger problem serves as the independent oracle at moderate n.

Resonance contours in the (g1, g2) plane collect the points where a dressed
transition energy equals an odd number of oscillator quanta.  One table of
the transition over a fan of rays serves every quantum exchange asked for,
and all brackets on it are bisected together.  On a straight line from zero
coupling, one bisection (``_line_resonance``) serves both the contour point
and the gap scan of the splitting comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, TrackingError
from .trilevel import ModelParams, _amplitudes, _trig_form, eigenvalues_at

WKB_DEFAULT_NODES = 256
_WKB_TOL = 1e-9
_WKB_MAX_DOUBLINGS = 8

#: contour points must satisfy the resonance condition to this residual
CONTOUR_RESIDUAL = 1e-6

#: halvings a bracketed root search may take before it gives up
_MAX_BISECTIONS = 200

#: a resonance on a line is bisected until its mismatch is this small
_LINE_TOL = 1e-8

#: quadrature nodes of a resonance position on a line or an arc; the
#: two-state estimate re-checks the line's resonance at the same count
RESONANCE_NODES = 512

#: kernel points (coupling points times evaluated nodes) per block of an
#: orbit average; bounds the temporaries of a large batch
_CHUNK_POINTS = 16384

_HALF_ROOT3 = 0.5 * math.sqrt(3.0)


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


def _bisect_root(f, lo, hi, tol, what, flo=None, args=()):
    """Bisect the sign changes of ``f`` on the brackets [lo, hi] until |f(mid)| <= tol.

    ``lo`` and ``hi`` are arrays of brackets; ``f(x, *args)`` maps an array of
    points, and the matching entries of each array in ``args``, to an array of
    values.  Every bracket halves on its own and stops at its first midpoint
    with |f(mid)| <= tol.  Returns the arrays ``(mid, f(mid))``; ``flo`` is
    f(lo) when the caller already has it.  Raises ConvergenceError naming
    ``what`` (a string, or a function of the bracket index) when a bracket
    runs out of halvings.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    args = tuple(np.asarray(a) for a in args)
    flo = np.array(f(lo, *args) if flo is None else flo, dtype=float, ndmin=1)
    mid, fmid = np.empty_like(lo), np.empty_like(lo)
    live = np.arange(lo.size)
    for _ in range(_MAX_BISECTIONS):
        if live.size == 0:
            break
        m = 0.5 * (lo[live] + hi[live])
        fm = f(m, *(a[live] for a in args))
        mid[live], fmid[live] = m, fm
        open_ = np.abs(fm) > tol
        up = open_ & ((fm > 0) == (flo[live] > 0))
        down = open_ & ~up
        lo[live[up]], flo[live[up]] = m[up], fm[up]
        hi[live[down]] = m[down]
        live = live[open_]
    if live.size:
        i = live[0]
        raise ConvergenceError(
            f"{what(i) if callable(what) else what} not within {tol:.1e} after "
            f"{_MAX_BISECTIONS} bisections; last residual {fmid[i]:.3e} at {float(mid[i])!r}")
    return mid, fmid


def _orbit_levels(template, u, v, n, nodes):
    """Dressed levels, shape (N, 3), at the N coupling points (u[i], v[i]).

    Each adiabatic level of ``template``'s bare levels is averaged over the
    classical orbit of energy 2n+1 by the ``nodes``-point Chebyshev-Gauss
    rule.  The levels depend on y**2 only and the nodes are symmetric, so
    only the first half is evaluated, with weight 2 (the middle node of an
    odd count, weight 1).  The cubic's branches are
    mean + amp sin(phi + 2 pi k/3), where phi in [-pi/6, pi/6] is a third of
    its arcsin angle; they are linear in amp sin(phi) and amp cos(phi), so the
    average needs only the node sums S and C of those two, and the ascending
    levels are mean + (-S/2 - sqrt(3) C/2, S, -S/2 + sqrt(3) C/2) / nodes.
    The points go through the kernel in blocks of about ``_CHUNK_POINTS``
    kernel points.  Fewer than 16 nodes raise ValueError.
    """
    if nodes < 16:
        raise ValueError("need at least 16 quadrature nodes")
    u = np.array(u, dtype=float, ndmin=1)
    v = np.array(v, dtype=float, ndmin=1)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("coupling amplitudes must be finite")
    if np.any(u < 0) or np.any(v < 0):
        i = int(np.argmax((u < 0) | (v < 0)))
        raise ValueError(f"coupling amplitudes must be non-negative: u={u[i]}, v={v[i]}")
    pairs = nodes // 2
    theta = (2.0 * np.arange(1, nodes - pairs + 1) - 1.0) * np.pi / (2.0 * nodes)
    y = math.sqrt(2.0 * float(n) + 1.0) * np.cos(theta)
    rows = max(1, _CHUNK_POINTS // y.size)
    out = np.empty((u.size, 3))
    for start in range(0, u.size, rows):
        block = slice(start, start + rows)
        mean, amp, three_phi = _trig_form(template, y, u[block, None], v[block, None])
        sin = np.sin(three_phi / 3.0)
        # cos(phi) >= sqrt(3)/2 on [-pi/6, pi/6], so the root loses nothing
        cos = np.sqrt(1.0 - sin * sin)
        sin *= amp
        cos *= amp
        s = 2.0 * sin[:, :pairs].sum(axis=1)
        c = 2.0 * cos[:, :pairs].sum(axis=1)
        if nodes % 2:
            s += sin[:, pairs]
            c += cos[:, pairs]
        c *= _HALF_ROOT3
        out[block, 0] = mean + (-0.5 * s - c) / nodes
        out[block, 1] = mean + s / nodes
        out[block, 2] = mean + (-0.5 * s + c) / nodes
    return out


def wkb_levels(params: ModelParams, n: int = None, nodes: int = WKB_DEFAULT_NODES,
               tol: float = _WKB_TOL) -> np.ndarray:
    """All three dressed energies at once, with node-doubling control.

    Doubles the Chebyshev-Gauss node count until the result moves by less
    than ``tol``; raises ConvergenceError naming the point if that never
    happens.
    """
    if n is None:
        n = params.n0
    value = _orbit_levels(params, params.u, params.v, n, nodes)[0]
    for _ in range(_WKB_MAX_DOUBLINGS):
        nodes *= 2
        new = _orbit_levels(params, params.u, params.v, n, nodes)[0]
        change = np.max(np.abs(new - value))
        if change <= tol:
            return new
        value = new
    raise ConvergenceError(
        f"dressed-level quadrature did not settle to {tol} at g1={params.g1:.6g}, "
        f"g2={params.g2:.6g}, n={n}: last change {change:.3e} at {nodes} nodes")


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


def h0_level_fd(params: ModelParams, j: int, n: int) -> float:
    """Dressed energy of level ``j`` from a grid solution of the one-dimensional problem.

    Solves (E + 1/2) u = [E_j(y) + (1/2)(-d^2/dy^2 + y^2)] u on a uniform
    grid, picks the eigenfunction with exactly ``n`` sign changes, and
    subtracts the ladder offset.  The grid spacing is set from the local
    momentum at the target energy (1.15 times the Nyquist rate) and the
    extent from where the potential exceeds the target by a margin of 10.

    The solve is repeated on a finer grid and a shift above 1e-6 raises
    ConvergenceError.
    """
    import scipy.linalg    # only this oracle needs scipy; the rest of the module is numpy

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
    return lam_fine - 0.5 - n


# ---------------------------------------------------------------------------
# resonance contours


def _transition_gap(template, g1, g2, jk, n, nodes):
    """Dressed transition E_k - E_j at the coupling points (g1, g2), in their shape."""
    shape = np.broadcast(g1, g2).shape
    u, v = _amplitudes(template.e1, template.e2, template.e3, template.n0,
                       np.asarray(g1, dtype=float), np.asarray(g2, dtype=float))
    levels = _orbit_levels(template, np.ravel(u), np.ravel(v), n, nodes)
    return (levels[:, jk[1] - 1] - levels[:, jk[0] - 1]).reshape(shape)[()]


def _scan_grid(radius, points):
    """Radii biased toward the origin so contours that terminate there are seen.

    A third of the points run geometrically up to radius/10 and the rest
    evenly on to ``radius``.  The geometric part starts at 1e-4 or a decade
    below radius/10, whichever is lower, so the radii always ascend strictly,
    no crossing is bracketed twice, and a small radius is scanned down to
    radius/100.
    """
    top = radius / 10.0
    dense = np.geomspace(min(1e-4, top / 10.0), top, points // 3)
    coarse = np.linspace(top, radius, points - points // 3 + 1)[1:]
    return np.concatenate([dense, coarse])


def resonance_contour(template: ModelParams, transition, delta_ns, *,
                      angles=None, radius: float = 1.25, scan_points: int = 160,
                      nodes: int = WKB_DEFAULT_NODES,
                      residual_tol: float = CONTOUR_RESIDUAL) -> list:
    """Locate the (j, k, delta_n) resonance contours on a fan of rays.

    Returns one ResonanceContour per entry of ``delta_ns``, in that order.
    The dressed transition is tabulated once on a radius grid along every
    ray, and the sign changes of (transition) - delta_n are bracketed on that
    table for every delta_n and polished by bisection, all brackets at once.
    Every accepted point is re-verified with the quadrature node count
    doubled; a point that fails the check is bisected again at the doubled
    count.  Rays without a bracket are reported, not fatal.
    """
    j, k = _check_transition(transition)
    delta_ns = list(delta_ns)
    for dn in delta_ns:
        _check_odd(dn)
    n = template.n0
    if angles is None:
        angles = np.linspace(0.0, np.pi / 2.0, 181)
    angles = np.asarray(angles, dtype=float)
    if not np.all((angles >= 0.0) & (angles <= np.pi / 2.0)):
        raise ValueError("ray angles must lie in [0, pi/2]")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be a finite positive number, got {radius}")
    if scan_points < 2:
        raise ValueError(f"scan_points must be at least 2 to bracket a root, got {scan_points}")
    cos = np.array([math.cos(phi) for phi in angles])
    sin = np.array([math.sin(phi) for phi in angles])
    dns = np.array(delta_ns)

    def mismatch(t, ray, d, quad=nodes):
        return _transition_gap(template, t * cos[ray], t * sin[ray], (j, k), n, quad) - dns[d]

    # one table of the transition over rays x radii serves every delta_n
    ts = _scan_grid(radius, scan_points)
    table = _transition_gap(template, np.outer(cos, ts), np.outer(sin, ts), (j, k), n, nodes)
    vals = table[None, :, :] - dns[:, None, None]
    zero_d, zero_r, zero_i = np.nonzero(vals == 0.0)
    br_d, br_r, br_i = np.nonzero(np.sign(vals[..., :-1]) * np.sign(vals[..., 1:]) < 0)

    roots = np.empty(br_d.size)
    pending, quad, flo = np.arange(br_d.size), nodes, vals[br_d, br_r, br_i]
    for _ in range(_WKB_MAX_DOUBLINGS):
        if pending.size == 0:
            break
        args = (br_r[pending], br_d[pending])
        mid, _ = _bisect_root(lambda t, ray, d: mismatch(t, ray, d, quad),
                              ts[br_i[pending]], ts[br_i[pending] + 1], residual_tol,
                              lambda i: f"contour point on ray {angles[args[0][i]]}",
                              flo, args)
        ok = np.abs(mismatch(mid, *args, 2 * quad)) <= residual_tol
        roots[pending[ok]] = mid[ok]
        pending, quad, flo = pending[~ok], 2 * quad, None
    if pending.size:
        raise ConvergenceError(f"contour point on ray {angles[br_r[pending[0]]]} "
                               "fails the doubled-node check")

    d_all = np.concatenate([zero_d, br_d])
    r_all = np.concatenate([zero_r, br_r])
    t_all = np.concatenate([ts[zero_i], roots])
    order = np.lexsort((t_all, r_all, d_all))
    d_all, r_all, t_all = d_all[order], r_all[order], t_all[order]
    resid = mismatch(t_all, r_all, d_all, 2 * nodes)
    count = np.zeros((dns.size, angles.size), dtype=int)
    np.add.at(count, (d_all, r_all), 1)
    contours = []
    for d, dn in enumerate(delta_ns):
        on = d_all == d
        r, t = r_all[on], t_all[on]
        contours.append(ResonanceContour(
            (j, k), int(dn), np.column_stack([t * cos[r], t * sin[r]]), angles[r],
            resid[on], count[d, r] > 1, angles[count[d] == 0]))
    return contours


def contour_arc_crossing(template: ModelParams, transition, delta_n: int,
                         radius: float, *, n: int = None, nodes: int = RESONANCE_NODES,
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
        return _transition_gap(template, radius * np.cos(phi), radius * np.sin(phi),
                               (j, k), n, nodes) - delta_n

    lo, hi = 0.0, math.pi / 2.0
    flo, fhi = f(np.array([lo, hi]))
    if flo == 0.0:
        return (radius, 0.0), 0.0
    if fhi == 0.0:
        return (0.0, radius), 0.0
    if flo * fhi > 0:
        raise ConvergenceError(
            f"contour ({j},{k},{delta_n}) does not cross the arc of radius {radius}")
    mid, fm = _bisect_root(f, lo, hi, residual_tol * 1e-3,
                           f"contour ({j},{k},{delta_n}) on the arc of radius {radius}", flo)
    return (float(radius * np.cos(mid[0])), float(radius * np.sin(mid[0]))), float(fm[0])


def _line_resonance(template, end, transition, delta_n, n):
    """Where the dressed (j, k) transition matches ``delta_n`` quanta on a line.

    The line runs from zero coupling to the (g1, g2) point ``end``; the
    returned t in [1e-6, 1] puts the resonance at g = t * end, bisected until
    the mismatch is within ``_LINE_TOL``.  Raises ConvergenceError when the line
    does not cross the resonance or the bisection runs out.
    """
    j, k = transition
    end = np.asarray(end, dtype=float)

    def mismatch(t):
        g = t[:, None] * end
        return _transition_gap(template, g[:, 0], g[:, 1], (j, k), n,
                               RESONANCE_NODES) - delta_n

    lo, hi = 1e-6, 1.0
    flo, fhi = mismatch(np.array([lo, hi]))
    if flo * fhi > 0:
        raise ConvergenceError(
            f"the ({j},{k}) resonance with {delta_n} quanta does not cross the line "
            f"to (g1, g2) = ({end[0]:g}, {end[1]:g})")
    t, _ = _bisect_root(mismatch, lo, hi, _LINE_TOL,
                        f"the ({j},{k}) resonance with {delta_n} quanta", flo)
    return float(t[0])
