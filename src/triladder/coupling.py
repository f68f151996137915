"""Residual couplings generated by rotating the oscillator into the adiabatic frame.

The y-dependent eigenbasis B(y) of the level matrix M(y) defines the
derivative-coupling matrix G(y) = B^T (dB/dy).  Because dM/dy is constant
(sqrt(2) u at (1,2), sqrt(2) v at (2,3)), the off-diagonal Hellmann-Feynman
identity gives G in closed form from one eigensystem,
G_jk = b_j^T (dM/dy) b_k / (E_k - E_j), antisymmetric with a zero diagonal.
Its three independent entries F12, F13, F23 drive the residual operator of
the rotated problem that connects different levels: the anticommutator of
d/dy with each F_jk.

Matrix elements between product states (level j, oscillator quantum n) come
in two families with one argument check and one sign rule.
``v_matrix_element`` takes bare oscillator eigenfunctions (unit Fock states)
and ``v_matrix_element_h0`` the eigenfunctions of the rotated single-level
problem, which the two-state splitting estimate calls for.  Both are
evaluated the same way: on a Fock window around the two quantum numbers,
entirely in the window's DVR (the eigenbasis of the windowed position
operator), by one evaluator, ``_window_element``, that also returns the size
of the terms it sums as the roundoff floor of the window doubling.

In the DVR every function of y is diagonal and d/dy = [y, N] holds exactly,
N the window's number operator (its one dense product), counted from the
window's first state so that its roundoff does not grow with n.

That single-level problem, E_j(y) plus the oscillator, is assembled on the
window in one place, ``_rotated_operator``.  Its spectrum is also the
independent oracle of the dressed levels: ``h0_level_fd`` picks the rung by
its index in the window, and an element's states are aimed at their own
first-order rungs, never at the orbit average.  V omits the -(1/2) G^2
remainder of the rotation (moving the gap by <= 4.4e-10 relative on g2 = 0.3 g1
at delta_n 13-21); ``test_matches_brute_force_rotation`` subtracts its (1,2) part.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh, lu_factor, lu_solve

from .errors import ConvergenceError
from .selection import _check_level, _check_transition
from .trilevel import ModelParams, _chained_bases, eigenvalues_at

_REL_TOL = 1e-8
_ABS_FLOOR = 1e-12


def _ordered_pair(j, k, n, m):
    """Sign and ordered level pair of the element <j,n| . |k,m>.

    The ordered pair must be a transition (``_check_transition``), and n,
    m >= 0.  The operator for an ordered pair j < k is -(1/2) {d/dy,
    F_jk(y)}; for j > k the sign flips, which together with the antisymmetry
    of the kernel in (n, m) makes the full operator symmetric.
    """
    pair = _check_transition((min(j, k), max(j, k)))
    if n < 0 or m < 0:
        raise ValueError("oscillator quantum numbers must be >= 0")
    return (1.0 if j < k else -1.0), pair


def _coupling_batch(params, y):
    """G(y) = B^T dB/dy on an ascending coordinate grid, shape (N, 3, 3).

    Closed form G_jk = b_j^T (dM/dy) b_k / (E_k - E_j) on the sign-chained
    basis, with the diagonal set to exactly zero.  Degenerate points raise
    DegenerateLevelsError.
    """
    energies, basis = _chained_bases(params, np.atleast_1d(np.asarray(y, dtype=float)))
    wu, wv = math.sqrt(2.0) * params.u, math.sqrt(2.0) * params.v
    dm = np.array([[0.0, wu, 0.0], [wu, 0.0, wv], [0.0, wv, 0.0]])
    numer = basis.transpose(0, 2, 1) @ dm @ basis
    gaps = energies[:, None, :] - energies[:, :, None]
    diag = np.eye(3, dtype=bool)
    g = numer / np.where(diag, 1.0, gaps)
    g[:, diag] = 0.0
    return g


def coupling_matrix(params: ModelParams, y: float) -> np.ndarray:
    """Full 3x3 derivative-coupling matrix G = B^T dB/dy at one coordinate."""
    return _coupling_batch(params, [float(y)])[0]


def _converged(new, old, scale):
    delta = abs(new - old)
    return delta <= _REL_TOL * abs(new) or delta <= _ABS_FLOOR * scale


def _refine(evaluate, size, what, doublings=3, settled=1):
    """Evaluate at ``size``, then double the size up to ``doublings`` times.

    ``evaluate(size)`` returns ``(value, scale)``; once ``settled`` doubled
    values in a row pass ``_converged(new, previous, scale)`` the last is
    returned.  Otherwise ConvergenceError names ``what`` and the last change.
    """
    value, _ = evaluate(size)
    passed = 0
    for _ in range(doublings):
        size *= 2
        new, scale = evaluate(size)
        passed = passed + 1 if _converged(new, value, scale) else 0
        last_change, value = abs(new - value), new
        if passed == settled:
            return new
    raise ConvergenceError(
        f"{what} not stable under window refinement; last change {last_change:.3e}")


def position_offdiagonal(lo, hi):
    """Off-diagonal of y = (a + a^dag)/sqrt(2) on Fock states lo..hi."""
    k = np.arange(lo + 1, hi + 1, dtype=float)
    return np.sqrt(k / 2.0)


def _window(n, m, pad):
    """Fock window around quanta n and m, padded by ``pad`` on both sides, in its DVR.

    Returns the first Fock state ``lo``, the eigenvalues ``nodes`` and
    eigenvectors ``q`` (columns) of the windowed position operator, in whose
    basis (the DVR) every function of y is diagonal, and the window's one
    dense product num = q^T diag(0, 1, 2, ...) q: the number operator N
    counted from ``lo``.  N is diagonal on the window, so d/dy = [y, N] holds
    exactly there, and in the DVR d/dy is (x_a - x_b) num_ab.  Counted from 0,
    N near n = 1e8 would swamp that off-diagonal part in roundoff.
    """
    lo = max(min(n, m) - pad, 0)
    hi = max(n, m) + pad
    nodes, q = eigh_tridiagonal(np.zeros(hi - lo + 1), position_offdiagonal(lo, hi))
    return lo, nodes, q, (q.T * np.arange(nodes.size, dtype=float)) @ q


def _window_element(params, pair, nodes, num, left, right):
    """<left| {d/dy, F_jk} |right> on a window, and the size of the terms it sums.

    ``left`` and ``right`` are DVR vectors; there F_jk is the diagonal
    f = F_jk(nodes) and d/dy is D_ab = (x_a - x_b) num_ab (``_window``).  The
    size |left|^T (|D| |F| + |F| |D|) |right| is the magnitude sum of the
    products the evaluation adds up, whatever they cancel to.
    """
    f = _coupling_batch(params, nodes)[:, pair[0] - 1, pair[1] - 1]
    # D is built in place and antisymmetric: left^T F D right = -right^T D F left
    d = np.subtract.outer(nodes, nodes)
    d *= num
    fv = np.stack([f * right, f * left], axis=1)
    p = d @ fv
    value = float(left @ p[:, 0] - right @ p[:, 1])
    p = np.abs(d, out=d) @ np.abs(fv)
    return value, float(np.abs(left) @ p[:, 0] + np.abs(right) @ p[:, 1])


def v_matrix_element(params: ModelParams, j: int, k: int, n: int, m: int) -> float:
    """<level j, n| derivative-coupling operator |level k, m>, in oscillator quanta.

    The oscillator factors are bare oscillator eigenfunctions, the unit Fock
    states n and m.  Evaluated on a Fock window around them padded by
    4 |n - m| + 64 states; the padding doubles until the value is stable to
    1e-8 relative, else ConvergenceError.  No practical limit on n.
    """
    sigma, pair = _ordered_pair(j, k, n, m)

    def evaluate(pad):
        lo, nodes, q, num = _window(n, m, pad)
        # the unit Fock states n and m are rows of q in the DVR
        return _window_element(params, pair, nodes, num, q[n - lo], q[m - lo])

    value = _refine(evaluate, 4 * abs(n - m) + 64, f"matrix element ({j},{n})<->({k},{m})")
    return -0.5 * sigma * value


#: inverse-iteration steps a rotated-frame state gets to settle
_INVERSE_STEPS = 30


def _rotated_operator(params, level, nq, lo, nodes, num):
    """The single-level rotated problem in a window's DVR, rungs counted from ``nq``.

    The number operator ``num`` (counted from ``lo``, see ``_window``) plus
    the diagonal E_level(nodes) + lo - nq.
    """
    op = num.copy()
    op[np.diag_indices_from(op)] += eigenvalues_at(params, nodes)[:, level - 1] + float(lo - nq)
    return op


def h0_level_fd(params: ModelParams, j: int, n: int) -> float:
    """Dressed energy of level ``j`` from the rotated single-level problem at rung ``n``.

    Solves E_j(y) + (oscillator) on the Fock window of ``n`` padded by 48
    states on each side and takes the eigenvalue at index ``n - lo`` of the
    window's ascending spectrum (``lo`` its first state), less the rung ``n``.
    The padding doubles at most four times; once two successive doublings
    pass ``_converged`` (1e-8 relative) the later value is returned, else
    ConvergenceError.  Independent of the orbit average.
    """
    _check_level(j)
    if n < 0 or n > 2000:
        raise ValueError(f"h0_level_fd supports 0 <= n <= 2000, got {n}")

    def evaluate(pad):
        lo, nodes, _, num = _window(n, n, pad)
        op = _rotated_operator(params, j, n, lo, nodes, num)
        (value,) = eigvalsh(op, subset_by_index=[n - lo, n - lo])
        # the operator's norm sets the roundoff floor of its eigenvalues
        return float(value), float(np.max(np.sum(np.abs(op), axis=1)))

    # one small step between two unsettled windows is not convergence
    return _refine(evaluate, 48, f"dressed level {j} at n={n}", doublings=4, settled=2)


def _window_h0_state(params, level, nq, lo, nodes, q, num):
    """Eigenvector of the windowed single-level rotated problem near one rung.

    The operator is ``_rotated_operator``; its eigenvector nearest the target
    <nq| E_level(y) |nq> (the first-order rung, the Rayleigh quotient of the
    Fock state at ``nq``, row ``nq - lo`` of ``q`` in the DVR) is the
    distorted oscillator state carrying quantum label ``nq``.  One LU of the
    operator minus the target is applied to that Fock state until the
    residual is below 1e-13 of the operator's infinity norm (at most 30
    steps).  ConvergenceError is raised when the nearest level lies more than
    0.45 from the target, and when the residual does not settle.  Returned in
    the DVR, signed so that its largest Fock component is positive.
    """
    shifted = _rotated_operator(params, level, nq, lo, nodes, num)
    tol = 1e-13 * np.max(np.sum(np.abs(shifted), axis=1))
    vec = q[nq - lo]
    shifted[np.diag_indices_from(shifted)] -= vec @ shifted @ vec
    lu = lu_factor(shifted)
    for _ in range(_INVERSE_STEPS):
        vec = lu_solve(lu, vec)
        # for unit vec, |vec| <= 1 / (distance of the nearest level to the
        # target), with equality once vec is an eigenvector
        distance = 1.0 / np.linalg.norm(vec)
        vec *= distance
        applied = shifted @ vec
        residual = np.linalg.norm(applied - (vec @ applied) * vec)
        if residual <= tol:
            break
    if distance > 0.45:
        raise ConvergenceError(
            f"no rotated-frame level within 0.45 of the predicted rung (level {level}, n={nq})")
    if residual > tol:
        raise ConvergenceError(
            f"rotated-frame level {level}, n={nq} did not settle in {_INVERSE_STEPS} "
            f"inverse-iteration steps; residual {residual:.3e} against {tol:.3e}")
    # deterministic sign so window-size refinement compares like with like
    fock = q @ vec
    return vec if fock[np.argmax(np.abs(fock))] >= 0 else -vec


def v_matrix_element_h0(params: ModelParams, j: int, k: int, n: int, m: int) -> float:
    """Derivative-coupling element between rotated-frame eigenstates.

    Unlike :func:`v_matrix_element`, the oscillator factors here are the
    eigenfunctions of the single-level rotated problem (the bare oscillator
    distorted by the adiabatic potential), which is what degenerate
    perturbation theory in the rotated frame calls for.  Far-multiphoton
    elements are exponentially sensitive to this distortion.

    Evaluated on a Fock window around the two quantum numbers, padded by
    4 |n - m| + 96 states; the padding doubles until the value is stable.
    Each window aims its two states at their own first-order rungs.
    """
    sigma, pair = _ordered_pair(j, k, n, m)

    def evaluate(p):
        lo, nodes, q, num = _window(n, m, p)
        uj = _window_h0_state(params, j, n, lo, nodes, q, num)
        uk = _window_h0_state(params, k, m, lo, nodes, q, num)
        # d/dy is built after the eigensolves, never beside their LUs (peak memory)
        return _window_element(params, pair, nodes, num, uj, uk)

    value = _refine(evaluate, 4 * abs(n - m) + 96,
                    f"rotated-frame element ({j},{n})<->({k},{m})")
    return -0.5 * sigma * value

