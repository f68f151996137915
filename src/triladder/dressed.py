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
and all brackets on it are closed together.  Every resonance search, on the
rays, on an arc (``contour_arc_crossing``) or on a straight line from zero
coupling (``_line_resonance``, which serves both the contour point and the
gap scan of the splitting comparison), closes its brackets with one root
helper, ``_bisect_root``, to roundoff; each caller then checks the mismatch
at the root against one bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, TrackingError
from .trilevel import ModelParams, _amplitudes, _ascending, _trig_form, eigenvalues_at

WKB_DEFAULT_NODES = 256
_WKB_TOL = 1e-9
_WKB_MAX_DOUBLINGS = 8

#: contour points must satisfy the resonance condition to this residual
CONTOUR_RESIDUAL = 1e-6

#: steps a bracketed root search may take before it gives up
_MAX_ROOT_STEPS = 200

#: quadrature nodes of a resonance position on a line or an arc; the
#: two-state estimate re-checks the line's resonance at the same count
RESONANCE_NODES = 512

#: kernel points (coupling points times evaluated nodes) per block of an
#: orbit average; bounds the temporaries of a large batch
_CHUNK_POINTS = 16384


@dataclass(frozen=True, eq=False)
class ResonanceContour:
    """Points in the (g1, g2) quadrant where a transition matches delta_n quanta.

    ``points`` is ordered by ray angle (and by radius within a ray when a ray
    crosses the contour more than once).  ``angles`` are the corresponding ray
    angles, ``residuals`` the resonance mismatch at twice the node count, and
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


def _bisect_root(f, lo, hi, what, flo=None, fhi=None, args=()):
    """Close the sign-changing brackets [lo, hi] of ``f`` onto their roots.

    ``f(x, *args)`` maps an array of points, with the matching entries of the
    arrays in ``args``, to an array of values; ``flo`` and ``fhi`` are f at
    the ends when the caller has them.  Each step is Illinois false position:
    the secant point, or the midpoint when that is not strictly inside, and an
    end kept twice in a row has its value halved.  A bracket stops where f is
    exactly 0 (an end included) or once it is within 4 ulps of its ends, so
    no tolerance is involved.  Returns the arrays ``(x, f(x))`` of the last
    points evaluated.  Raises ConvergenceError naming ``what`` (a string, or a
    function of the bracket index) and the bracket when one is still open
    after ``_MAX_ROOT_STEPS`` steps.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    args = tuple(np.asarray(a) for a in args)
    flo = np.array(f(lo, *args) if flo is None else flo, dtype=float, ndmin=1)
    fhi = np.array(f(hi, *args) if fhi is None else fhi, dtype=float, ndmin=1)
    x, fx = np.where(flo == 0.0, lo, hi), np.where(flo == 0.0, flo, fhi)
    kept = np.zeros(lo.size)        # the end kept at the last step: -1 lo, 1 hi
    live = np.nonzero(fx != 0.0)[0]
    for _ in range(_MAX_ROOT_STEPS):
        if live.size == 0:
            break
        a, b, fa, fb = lo[live], hi[live], flo[live], fhi[live]
        m = a + (b - a) * (fa / (fa - fb))
        m = np.where((a < m) & (m < b), m, 0.5 * (a + b))
        fm = f(m, *(arg[live] for arg in args))
        x[live], fx[live] = m, fm
        up = (fm > 0) == (fa > 0)
        fhi[live[up & (kept[live] == 1)]] *= 0.5
        flo[live[~up & (kept[live] == -1)]] *= 0.5
        lo[live[up]], flo[live[up]] = m[up], fm[up]
        hi[live[~up]], fhi[live[~up]] = m[~up], fm[~up]
        kept[live] = np.where(up, 1.0, -1.0)
        ulps = np.spacing(np.maximum(np.abs(lo[live]), np.abs(hi[live])))
        live = live[(fm != 0.0) & (hi[live] - lo[live] > 4.0 * ulps)]
    if live.size:
        i = live[0]
        raise ConvergenceError(
            f"{what(i) if callable(what) else what} not closed after {_MAX_ROOT_STEPS} "
            f"steps; bracket [{float(lo[i])!r}, {float(hi[i])!r}]")
    return x, fx


def _crossing(mismatch, lo, hi, what, where):
    """(x, mismatch(x)) at the sign change of the scalar ``mismatch`` in [lo, hi].

    Raises ConvergenceError when the ends do not change sign, or when the
    mismatch at the root exceeds ``CONTOUR_RESIDUAL``, as at a jump.
    """
    flo, fhi = mismatch(np.array([lo, hi]))
    if flo * fhi > 0:
        raise ConvergenceError(f"{what} does not cross {where}")
    (x,), (fx,) = _bisect_root(mismatch, lo, hi, f"{what} on {where}", flo, fhi)
    if abs(fx) > CONTOUR_RESIDUAL:
        raise ConvergenceError(f"{what} on {where} leaves a mismatch of {fx:.3e} at its "
                               f"sign change {float(x)!r}, above {CONTOUR_RESIDUAL:g}")
    return float(x), float(fx)


def _orbit_levels(template, u, v, n, nodes):
    """Dressed levels, shape (N, 3), at the N coupling points (u[i], v[i]).

    Each adiabatic level of ``template``'s bare levels is averaged over the
    classical orbit of energy 2n+1 by the ``nodes``-point Chebyshev-Gauss
    rule.  The levels depend on y**2 only and the nodes are symmetric, so
    only the first half is evaluated, with weight 2 (the middle node of an
    odd count, weight 1).  The sorted levels are linear in amp sin(phi) and
    amp cos(phi) of the cubic's trigonometric form (``trilevel._ascending``),
    so the average needs only the node sums of those two.  The points go
    through the kernel in blocks of about ``_CHUNK_POINTS`` kernel points.
    Fewer than 16 nodes or a negative ``n`` raise ValueError.
    """
    if nodes < 16:
        raise ValueError("need at least 16 quadrature nodes")
    if n < 0:
        raise ValueError(f"the quantum number n must be >= 0, got {n}")
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
        mean, sin, cos = _trig_form(template, y, u[block, None], v[block, None])
        s = 2.0 * sin[:, :pairs].sum(axis=1)
        c = 2.0 * cos[:, :pairs].sum(axis=1)
        if nodes % 2:
            s += sin[:, pairs]
            c += cos[:, pairs]
        out[block] = _ascending(mean, s, c, nodes)
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
    table for every delta_n and closed onto their roots to roundoff, all
    brackets at once, from the table's values at their ends.  Every point is
    verified with the quadrature node count doubled: its mismatch there must
    be within ``residual_tol``, or it is found again at the doubled count.
    Rays without a bracket are reported, not fatal.
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
    resid = np.full(br_d.size, np.nan)      # doubled-node mismatch of the first round
    pending, quad = np.arange(br_d.size), nodes
    flo, fhi = vals[br_d, br_r, br_i], vals[br_d, br_r, br_i + 1]
    for _ in range(_WKB_MAX_DOUBLINGS):
        if pending.size == 0:
            break
        args = (br_r[pending], br_d[pending])
        mid, _ = _bisect_root(lambda t, ray, d: mismatch(t, ray, d, quad),
                              ts[br_i[pending]], ts[br_i[pending] + 1],
                              lambda i: f"contour point on ray {angles[args[0][i]]}",
                              flo, fhi, args)
        check = mismatch(mid, *args, 2 * quad)
        ok = np.abs(check) <= residual_tol
        roots[pending[ok]] = mid[ok]
        if quad == nodes:
            resid[pending[ok]] = check[ok]
        pending, quad, flo, fhi = pending[~ok], 2 * quad, None, None
    if pending.size:
        raise ConvergenceError(f"contour point on ray {angles[br_r[pending[0]]]} "
                               "fails the doubled-node check")

    d_all = np.concatenate([zero_d, br_d])
    r_all = np.concatenate([zero_r, br_r])
    t_all = np.concatenate([ts[zero_i], roots])
    resid = np.concatenate([np.full(zero_d.size, np.nan), resid])
    order = np.lexsort((t_all, r_all, d_all))
    d_all, r_all, t_all, resid = d_all[order], r_all[order], t_all[order], resid[order]
    # table zeros and points found at a raised node count have no such value yet
    again = np.isnan(resid)
    if np.any(again):
        resid[again] = mismatch(t_all[again], r_all[again], d_all[again], 2 * nodes)
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
                         radius: float, *, nodes: int = RESONANCE_NODES):
    """Point where a resonance contour crosses the arc of a given radius.

    The root in the polar angle at fixed radius, found to roundoff; useful for
    contours that terminate at the origin, where radial scans of any fixed ray
    fan stop resolving them.  Returns ``((g1, g2), residual)``; raises
    ConvergenceError as ``_crossing`` does.
    """
    j, k = _check_transition(transition)
    _check_odd(delta_n)

    def mismatch(phi):
        return _transition_gap(template, radius * np.cos(phi), radius * np.sin(phi),
                               (j, k), template.n0, nodes) - delta_n

    phi, resid = _crossing(mismatch, 0.0, math.pi / 2.0, f"contour ({j},{k},{delta_n})",
                           f"the arc of radius {radius}")
    return (radius * math.cos(phi), radius * math.sin(phi)), resid


def _line_resonance(template, end, transition, delta_n, n):
    """Where the dressed (j, k) transition matches ``delta_n`` quanta on a line.

    The line runs from zero coupling to the (g1, g2) point ``end``; the
    returned t in [1e-6, 1], found to roundoff, puts the resonance at
    g = t * end.  Raises ConvergenceError as ``_crossing`` does.
    """
    j, k = transition
    end = np.asarray(end, dtype=float)

    def mismatch(t):
        g = t[:, None] * end
        return _transition_gap(template, g[:, 0], g[:, 1], (j, k), n,
                               RESONANCE_NODES) - delta_n

    t, _ = _crossing(mismatch, 1e-6, 1.0, f"the ({j},{k}) resonance with {delta_n} quanta",
                     f"the line to (g1, g2) = ({end[0]:g}, {end[1]:g})")
    return t
