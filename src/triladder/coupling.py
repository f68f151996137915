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
through the window's DVR (the eigenvectors of the windowed position
operator), by one evaluator, ``_window_element``, that also returns the size
of the terms it sums as the roundoff floor of the window doubling.

That single-level problem, E_j(y) plus the oscillator, is assembled on a
Fock window in one place, ``_rotated_operator``.  Its spectrum is also the
independent oracle of the dressed levels: ``h0_level_fd`` picks the rung by
its index in the window, without the orbit average.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh, lu_factor, lu_solve

from .dressed import _check_level, wkb_levels
from .errors import ConvergenceError
from .trilevel import ModelParams, _chained_bases, eigenvalues_at

_REL_TOL = 1e-8
_ABS_FLOOR = 1e-12


def _ordered_pair(j, k, n, m):
    """Sign and ordered level pair of the element <j,n| . |k,m>.

    Checks that j and k are distinct levels of 1..3 and n, m >= 0.  The
    operator for an ordered pair j < k is -(1/2) {d/dy, F_jk(y)}; for j > k
    the sign flips, which together with the antisymmetry of the kernel in
    (n, m) makes the full operator symmetric.
    """
    if j not in (1, 2, 3) or k not in (1, 2, 3) or j == k:
        raise ValueError(f"levels must be distinct members of 1..3, got ({j}, {k})")
    if n < 0 or m < 0:
        raise ValueError("oscillator quantum numbers must be >= 0")
    return (1.0 if j < k else -1.0), (min(j, k), max(j, k))


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


def _refine(evaluate, size, what):
    """Evaluate at ``size``, then double the size up to three times.

    ``evaluate(size)`` returns ``(value, scale)``; the first doubled value
    that passes ``_converged(new, previous, scale)`` is returned.  Otherwise
    ConvergenceError names ``what`` and the last change.
    """
    value, _ = evaluate(size)
    for _ in range(3):
        size *= 2
        new, scale = evaluate(size)
        if _converged(new, value, scale):
            return new
        last_change = abs(new - value)
        value = new
    raise ConvergenceError(
        f"{what} not stable under window refinement; last change {last_change:.3e}")


def position_offdiagonal(lo, hi):
    """Off-diagonal of y = (a + a^dag)/sqrt(2) on Fock states lo..hi."""
    k = np.arange(lo + 1, hi + 1, dtype=float)
    return np.sqrt(k / 2.0)


def ladder_rows(lo, mat, sign):
    """((a + sign a^dag)/sqrt(2)) @ mat on Fock states lo, lo + 1, ...

    ``sign`` = -1 gives d/dy, +1 the position y.  Both are tridiagonal, so the
    product is two row shifts weighted by ``position_offdiagonal``: O(n^2)
    where a dense product is O(n^3).
    """
    off = position_offdiagonal(lo, lo + mat.shape[0] - 1)[:, None]
    out = np.zeros_like(mat)
    out[:-1] = off * mat[1:]
    out[1:] += sign * off * mat[:-1]
    return out


def _window(n, m, pad):
    """Fock window around quanta n and m, padded by ``pad`` on both sides.

    Returns the first state ``lo`` and the eigenvalues (position nodes) and
    eigenvectors of the windowed position operator.
    """
    lo = max(min(n, m) - pad, 0)
    hi = max(n, m) + pad
    nodes, q = eigh_tridiagonal(np.zeros(hi - lo + 1), position_offdiagonal(lo, hi))
    return lo, nodes, q


def _window_operators(params, pair, lo, nodes, q):
    """F_jk(y) at the window's nodes and the windowed anticommutator {d/dy, F_jk}."""
    f = _coupling_batch(params, nodes)[:, pair[0] - 1, pair[1] - 1]
    # F is symmetric and d/dy antisymmetric, so F d/dy = -(d/dy F)^T
    dfmat = ladder_rows(lo, (q * f) @ q.T, -1.0)
    return f, dfmat - dfmat.T


def _window_element(params, pair, lo, nodes, q, left, right):
    """<left| {d/dy, F_jk} |right> on a window, and the size of the terms it sums.

    ``left`` and ``right`` are vectors over the window's Fock states.  The
    size is |left|^T (|D| M + M |D|) |right| with M = |q| diag|F| |q|^T and
    |D| the position operator (the entrywise |d/dy|): the magnitude sum of
    the products the DVR evaluation adds up, whatever they cancel to.  It is
    taken from four |q|^T products, without forming M.
    """
    f, op = _window_operators(params, pair, lo, nodes, q)
    value = float(left @ op @ right)
    del op      # never held together with |q| (peak memory)
    mags = np.abs(np.stack([left, right], axis=1))
    # |q|^T times |left|, |right|, |D| |left| and |D| |right|
    p = np.abs(q).T @ np.hstack([mags, ladder_rows(lo, mags, 1.0)])
    return value, float(np.abs(f) @ (p[:, 2] * p[:, 1] + p[:, 0] * p[:, 3]))


def v_matrix_element(params: ModelParams, j: int, k: int, n: int, m: int) -> float:
    """<level j, n| derivative-coupling operator |level k, m>, in oscillator quanta.

    The oscillator factors are bare oscillator eigenfunctions, the unit Fock
    states n and m.  Evaluated on a Fock window around them padded by
    4 |n - m| + 64 states; the padding doubles until the value is stable to
    1e-8 relative, else ConvergenceError.  No practical limit on n.
    """
    sigma, pair = _ordered_pair(j, k, n, m)

    def evaluate(pad):
        lo, nodes, q = _window(n, m, pad)
        return _window_element(params, pair, lo, nodes, q, np.eye(1, nodes.size, n - lo)[0],
                               np.eye(1, nodes.size, m - lo)[0])

    value = _refine(evaluate, 4 * abs(n - m) + 64, f"matrix element ({j},{n})<->({k},{m})")
    return -0.5 * sigma * value


#: inverse-iteration steps a rotated-frame state gets to settle
_INVERSE_STEPS = 30


def _rotated_operator(params, level, nq, lo, nodes, q):
    """The single-level rotated problem on a Fock window, rungs counted from ``nq``.

    (number operator - nq) + E_level(y) on the window's Fock states from
    ``lo``, with E_level(y) taken at the window's position nodes and rotated
    back by their eigenvectors ``q`` (the window's DVR of the adiabatic curve).
    """
    energies = eigenvalues_at(params, nodes)[:, level - 1]
    op = (q * energies) @ q.T
    idx = np.arange(nodes.size)
    op[idx, idx] += (lo + idx) - float(nq)
    return op


def h0_level_fd(params: ModelParams, j: int, n: int) -> float:
    """Dressed energy of level ``j`` from the rotated single-level problem at rung ``n``.

    Solves E_j(y) + (oscillator) on the Fock window of ``n`` padded by 48
    states on each side and takes the eigenvalue at index ``n - lo`` of the
    window's ascending spectrum (``lo`` its first state), less the rung ``n``.
    The padding doubles until the value is stable to 1e-8 relative
    (``_refine``), else ConvergenceError.  Independent of the orbit average.
    """
    _check_level(j)
    if n < 0 or n > 2000:
        raise ValueError(f"h0_level_fd supports 0 <= n <= 2000, got {n}")

    def evaluate(pad):
        lo, nodes, q = _window(n, n, pad)
        op = _rotated_operator(params, j, n, lo, nodes, q)
        (value,) = eigvalsh(op, subset_by_index=[n - lo, n - lo])
        # the operator's norm sets the roundoff floor of its eigenvalues
        return float(value), float(np.max(np.sum(np.abs(op), axis=1)))

    return _refine(evaluate, 48, f"dressed level {j} at n={n}")


def _window_h0_state(params, level, nq, lo, nodes, q, target_dressed):
    """Eigenvector of the windowed single-level rotated problem near one rung.

    The operator is ``_rotated_operator``; its eigenvector with eigenvalue
    nearest ``target_dressed + nq`` is the distorted oscillator state carrying
    quantum label ``nq``.  It comes from shift-and-invert inverse iteration:
    one LU of the operator minus the target, applied to the Fock state at
    ``nq`` until the residual is below 1e-13 of the operator's infinity norm
    (at most 30 steps).  ConvergenceError is raised when the nearest level
    lies more than 0.45 from the target, and when the residual does not
    settle.
    """
    shifted = _rotated_operator(params, level, nq, lo, nodes, q)
    idx = np.arange(nodes.size)
    tol = 1e-13 * np.max(np.sum(np.abs(shifted), axis=1))
    shifted[idx, idx] -= target_dressed
    lu = lu_factor(shifted)
    vec = np.eye(1, idx.size, nq - lo)[0]
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
    return vec if vec[np.argmax(np.abs(vec))] >= 0 else -vec


def v_matrix_element_h0(params: ModelParams, j: int, k: int, n: int, m: int) -> float:
    """Derivative-coupling element between rotated-frame eigenstates.

    Unlike :func:`v_matrix_element`, the oscillator factors here are the
    eigenfunctions of the single-level rotated problem (the bare oscillator
    distorted by the adiabatic potential), which is what degenerate
    perturbation theory in the rotated frame calls for.  Far-multiphoton
    elements are exponentially sensitive to this distortion.

    Evaluated on a Fock window around the two quantum numbers, padded by
    4 |n - m| + 96 states; the padding doubles until the value is stable.
    """
    sigma, pair = _ordered_pair(j, k, n, m)
    # each rung is targeted with its own level's orbit average at its own
    # quantum number; rung identification only needs the dressed values to a
    # fraction of one quantum, so a kinked integrand (decoupled-level
    # crossing) is tolerable
    target_j = wkb_levels(params, n, tol=1e-6)[j - 1]
    target_k = wkb_levels(params, m, tol=1e-6)[k - 1]

    def evaluate(p):
        lo, nodes, q = _window(n, m, p)
        uj = _window_h0_state(params, j, n, lo, nodes, q, target_j)
        uk = _window_h0_state(params, k, m, lo, nodes, q, target_k)
        # the element operator is built after the two eigensolves, so it and
        # the factorizations are never held at once (peak memory)
        return _window_element(params, pair, lo, nodes, q, uj, uk)

    value = _refine(evaluate, 4 * abs(n - m) + 96,
                    f"rotated-frame element ({j},{n})<->({k},{m})")
    return -0.5 * sigma * value

