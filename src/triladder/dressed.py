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
The independent oracle at moderate n, the one-dimensional problem solved on
a Fock window, is ``coupling.h0_level_fd``.

Resonance contours in the (g1, g2) plane collect the points where a dressed
transition energy equals a number of quanta ``_exchange`` admits.  One table of
the transition over a fan of rays serves every quantum exchange asked for,
and all brackets on it are closed together.  A search on an arc
(``contour_arc_crossing``) or on a line from zero coupling (``_line_resonance``,
for the contour point and the gap scan of the splitting comparison) is
``_path_resonance``.  Every search goes through ``_resonance_roots``: it
closes the brackets to roundoff and holds each root to one bound,
``CONTOUR_RESIDUAL``, at its node count and at twice that count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .selection import _check_level, _check_transition, _exchange
from .trilevel import ModelParams, _amplitudes, _ascending, _trig_form
from .trilevel import eigenvalues_at  # unused here: perfbench's tracing wraps this binding

#: nodes of wkb_levels and the contour rays; only their convergence checks take more
WKB_DEFAULT_NODES = 256
_WKB_TOL = 1e-9
_WKB_MAX_DOUBLINGS = 8

#: contour points must satisfy the resonance condition to this residual
CONTOUR_RESIDUAL = 1e-6

#: steps a bracketed root search may take before it gives up
_MAX_ROOT_STEPS = 200

#: quadrature nodes of a resonance position on a line or an arc; the
#: two-state estimate holds its point to CONTOUR_RESIDUAL at twice this
#: count, the check the line's root passed
RESONANCE_NODES = 512

#: kernel points (coupling points times evaluated nodes) per block of an
#: orbit average; bounds the temporaries of a large batch
_CHUNK_POINTS = 16384


@dataclass(frozen=True, eq=False)
class ResonanceContour:
    """Points in the (g1, g2) quadrant where a transition matches delta_n quanta.

    ``points`` is ordered by ray angle (and by radius within a ray when a ray
    crosses the contour more than once).  ``angles`` are the corresponding ray
    angles, ``residuals`` the resonance mismatch at twice the scan's node count
    (the check each point passed, unless it was found again at a higher count),
    and ``multiple`` flags points that share a ray with another root.
    ``missed_angles`` lists rays that never bracketed the contour.
    """

    transition: tuple
    delta_n: int
    points: np.ndarray
    angles: np.ndarray
    residuals: np.ndarray
    multiple: np.ndarray
    missed_angles: np.ndarray


def _bisect_root(f, lo, hi, what, flo=None, fhi=None, args=()):
    """Close the sign-changing brackets [lo, hi] of ``f`` onto their roots.

    ``f(x, *args)`` maps an array of points, with the matching entries of the
    arrays in ``args``, to an array of values; ``flo`` and ``fhi`` are f at
    the ends when the caller has them.  Each step is Illinois false position:
    the secant point, or the midpoint when that is not strictly inside or the
    same end has been kept three steps running, and an end kept twice in a row
    has its value halved.  A bracket stops where f is exactly 0 (an end
    included) or once it is within 4 ulps of its ends, so no tolerance is
    involved.  Returns the arrays ``(x, f(x))`` of the last
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
    kept = np.zeros(lo.size)        # steps running the same end was kept: < 0 lo, > 0 hi
    live = np.nonzero(fx != 0.0)[0]
    for _ in range(_MAX_ROOT_STEPS):
        if live.size == 0:
            break
        a, b, fa, fb, run = lo[live], hi[live], flo[live], fhi[live], kept[live]
        m = a + (b - a) * (fa / (fa - fb))
        m = np.where((a < m) & (m < b) & (np.abs(run) < 3), m, 0.5 * (a + b))
        fm = f(m, *(arg[live] for arg in args))
        x[live], fx[live] = m, fm
        up = (fm > 0) == (fa > 0)
        fhi[live[up & (run > 0)]] *= 0.5
        flo[live[~up & (run < 0)]] *= 0.5
        lo[live[up]], flo[live[up]] = m[up], fm[up]
        hi[live[~up]], fhi[live[~up]] = m[~up], fm[~up]
        kept[live] = np.where(up, np.maximum(run, 0.0) + 1.0, np.minimum(run, 0.0) - 1.0)
        ulps = np.spacing(np.maximum(np.abs(lo[live]), np.abs(hi[live])))
        live = live[(fm != 0.0) & (hi[live] - lo[live] > 4.0 * ulps)]
    if live.size:
        i = live[0]
        raise ConvergenceError(
            f"{what(i) if callable(what) else what} not closed after {_MAX_ROOT_STEPS} "
            f"steps; bracket [{float(lo[i])!r}, {float(hi[i])!r}]")
    return x, fx


def _resonance_roots(mismatch, lo, hi, nodes, what, flo=None, fhi=None, args=()):
    """Verified roots of ``mismatch(x, quad, *args)``, quad the orbit-average nodes.

    ``_bisect_root`` closes the sign-changing brackets [lo, hi] at ``nodes``
    (``flo``, ``fhi``: the mismatch at their ends there, if known); a closed
    bracket left above ``CONTOUR_RESIDUAL`` holds a jump and raises
    ConvergenceError.  Each root must meet that bound at twice the node count,
    or it is found again at that count, at most ``_WKB_MAX_DOUBLINGS`` times.
    ``what`` names a bracket (a string, or a function of its index).  Returns
    the roots and their mismatch at twice ``nodes``.
    """
    lo, hi = np.atleast_1d(lo, hi)
    name = what if callable(what) else (lambda i: what)
    roots, resid = np.empty(lo.size), np.full(lo.size, np.nan)    # resid: first round checks
    pending, quad = np.arange(lo.size), nodes
    for _ in range(_WKB_MAX_DOUBLINGS):
        if pending.size == 0:
            break
        sub = tuple(a[pending] for a in args)
        x, fx = _bisect_root(lambda t, *a: mismatch(t, quad, *a), lo[pending], hi[pending],
                             lambda i: name(pending[i]), flo, fhi, sub)
        jump = np.abs(fx) > CONTOUR_RESIDUAL
        if np.any(jump):
            i = int(np.argmax(jump))
            raise ConvergenceError(f"{name(pending[i])} leaves a mismatch of {fx[i]:.3e} at "
                                   f"its sign change {float(x[i])!r}, above {CONTOUR_RESIDUAL:g}")
        check = mismatch(x, 2 * quad, *sub)
        ok = np.abs(check) <= CONTOUR_RESIDUAL
        roots[pending[ok]] = x[ok]
        if quad == nodes:
            resid[pending[ok]] = check[ok]
        pending, quad, flo, fhi = pending[~ok], 2 * quad, None, None
    if pending.size:
        raise ConvergenceError(f"{name(pending[0])} fails the doubled-node check")
    late = np.isnan(resid)
    if np.any(late):
        resid[late] = mismatch(roots[late], 2 * nodes, *(a[late] for a in args))
    return roots, resid


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


def wkb_levels(params: ModelParams, n: int = None, tol: float = _WKB_TOL) -> np.ndarray:
    """All three dressed energies at once, with node-doubling control.

    Starts at ``WKB_DEFAULT_NODES`` and doubles the Chebyshev-Gauss node
    count until the result moves by at most ``tol``; raises ConvergenceError
    naming the point if that never happens.
    """
    if n is None:
        n = params.n0
    nodes = WKB_DEFAULT_NODES
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
                       tol: float = _WKB_TOL) -> float:
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
    levels = wkb_levels(params, n, tol=tol)
    return float(levels[k - 1] - levels[j - 1])


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
                      angles=None, radius: float = 1.25, scan_points: int = 160) -> list:
    """Locate the (j, k, delta_n) resonance contours on a fan of rays.

    Returns one ResonanceContour per entry of ``delta_ns``, in that order.
    The dressed transition is tabulated once on a radius grid along every
    ray, and the sign changes of (transition) - delta_n are bracketed on that
    table for every delta_n (a table value of exactly 0 is a bracket of zero
    width) and closed onto their roots by ``_resonance_roots``, all brackets
    at once, from the table's values at their ends.  Rays without a bracket
    are reported, not fatal.
    """
    j, k = _check_transition(transition)
    delta_ns = list(delta_ns)
    for dn in delta_ns:
        _exchange((j, k), dn)
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

    def mismatch(t, quad, ray, d):
        return _transition_gap(template, t * cos[ray], t * sin[ray], (j, k), n, quad) - dns[d]

    # one table of the transition over rays x radii serves every delta_n
    ts = _scan_grid(radius, scan_points)
    table = _transition_gap(template, np.outer(cos, ts), np.outer(sin, ts), (j, k), n,
                            WKB_DEFAULT_NODES)
    vals = table[None, :, :] - dns[:, None, None]
    zero_d, zero_r, zero_i = np.nonzero(vals == 0.0)
    br_d, br_r, br_i = np.nonzero(np.sign(vals[..., :-1]) * np.sign(vals[..., 1:]) < 0)
    d_all, r_all = np.concatenate([zero_d, br_d]), np.concatenate([zero_r, br_r])
    lo, hi = np.concatenate([zero_i, br_i]), np.concatenate([zero_i, br_i + 1])
    t_all, resid = _resonance_roots(mismatch, ts[lo], ts[hi], WKB_DEFAULT_NODES,
                                    lambda i: f"contour point on ray {angles[r_all[i]]}",
                                    vals[d_all, r_all, lo], vals[d_all, r_all, hi],
                                    (r_all, d_all))

    order = np.lexsort((t_all, r_all, d_all))
    d_all, r_all, t_all, resid = d_all[order], r_all[order], t_all[order], resid[order]
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


def _path_resonance(template, point, lo, hi, transition, delta_n, what, where):
    """Where the dressed (j, k) transition matches ``delta_n`` quanta on a path.

    ``point`` maps an array of path parameters in [lo, hi] to the coupling
    arrays (g1, g2); the transition is averaged at n = ``template.n0``.
    Returns the parameter of the resonance, from ``_resonance_roots`` at
    ``RESONANCE_NODES``, and its mismatch at twice that count.  Raises
    ConvergenceError "``what`` does not cross ``where``" when the mismatch
    has one sign at both ends, and as ``_resonance_roots`` does.
    """
    def mismatch(t, quad):
        g1, g2 = point(t)
        return _transition_gap(template, g1, g2, transition, template.n0, quad) - delta_n

    flo, fhi = mismatch(np.array([lo, hi]), RESONANCE_NODES)
    if flo * fhi > 0:
        raise ConvergenceError(f"{what} does not cross {where}")
    (t,), (resid,) = _resonance_roots(mismatch, lo, hi, RESONANCE_NODES, f"{what} on {where}",
                                      flo, fhi)
    return float(t), float(resid)


def contour_arc_crossing(template: ModelParams, transition, delta_n: int,
                         radius: float):
    """Point where a resonance contour crosses the arc of a given radius.

    The root in the polar angle at fixed radius (``_path_resonance``); useful
    for contours that terminate at the origin, where radial scans of any
    fixed ray fan stop resolving them.  Returns ``((g1, g2), residual)`` with
    the mismatch at twice ``RESONANCE_NODES``.  Raises ConvergenceError when
    the contour does not cross the arc, and as ``_resonance_roots`` does.
    """
    j, k = _exchange(transition, delta_n)
    phi, resid = _path_resonance(template, lambda t: (radius * np.cos(t), radius * np.sin(t)),
                                 0.0, math.pi / 2.0, (j, k), delta_n,
                                 f"contour ({j},{k},{delta_n})", f"the arc of radius {radius}")
    return (radius * math.cos(phi), radius * math.sin(phi)), resid


def _line_resonance(template, end, transition, delta_n):
    """The t in [1e-6, 1] that puts the ``delta_n`` resonance at t * ``end``.

    ``_path_resonance`` on the line from zero coupling to the (g1, g2) array
    ``end``.
    """
    j, k = transition
    t, _ = _path_resonance(template, lambda t: (t * end[0], t * end[1]), 1e-6, 1.0,
                           (j, k), delta_n, f"the ({j},{k}) resonance with {delta_n} quanta",
                           f"the line to (g1, g2) = ({end[0]:g}, {end[1]:g})")
    return t
