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
evaluated the same way: on a Fock window around the two quantum numbers, by
one evaluator, ``_window_element``, that also returns the size of the terms
it sums as the roundoff floor of the window doubling.

The window splits by parity.  P = diag(1, -1, 1) anticommutes with dM/dy, so
E_j(y) depends on y^2 alone, F12 and F23 are even in y and F13 is odd.  The
windowed y^2 keeps the parity of the Fock state, so each sector of the
window (its states lo, lo + 2, ... and lo + 1, lo + 3, ...) has its own DVR,
the eigenbasis of its tridiagonal block of y^2 (``_sector_window``), where
every function of y^2 is diagonal at the nodes sqrt(lambda).  The element is
summed in Fock space from matvecs: d/dy = [y, N] is the exact Fock
tridiagonal, an even F is applied as q (f * q^T v) in the sector of v, and
the odd F13 as y q (h * q^T v) with h = F13 / y.

That single-level problem, E_j(y) plus the oscillator, is assembled on one
sector in one place, ``_rotated_operator``, from the sector's number operator
counted from the window's first state so that its roundoff does not grow
with n.  A dense operator is formed in the BLAS of the LAPACK call that
consumes it, so this one comes from scipy's ``dsyrk``, not numpy's matmul
(each bundles its own OpenBLAS and thread pool).  Its spectrum is also the
independent oracle of the dressed levels: ``h0_level_fd`` picks the rung by
its index in the two sectors' merged spectra, and an element's states, each
solved on its own sector, are aimed at their own first-order rungs, never at
the orbit average.  V omits the -(1/2) G^2
remainder of the rotation (moving the gap by <= 4.4e-10 relative on g2 = 0.3 g1
at delta_n 13-21); ``test_matches_brute_force_rotation`` subtracts its (1,2) part.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh, lu_factor, lu_solve
from scipy.linalg.blas import dsyrk

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


def _position(e, v):
    """y applied to a window Fock vector ``v``, ``e`` the window's ``position_offdiagonal``."""
    out = np.zeros_like(v)
    out[:-1] = e * v[1:]
    out[1:] += e * v[:-1]
    return out


def _derivative(e, v):
    """d/dy = [y, N] applied to a window Fock vector: the exact Fock tridiagonal."""
    out = np.zeros_like(v)
    out[:-1] = e * v[1:]
    out[1:] -= e * v[:-1]
    return out


class _Sector(NamedTuple):
    """One Fock-parity sector of a window, in the DVR of its block of y^2.

    Its states are the window's ``first``-th, ``first + 2``-th, ...; row i of
    the eigenvectors ``q`` (columns) is its i-th state.  ``nodes`` are the
    square roots of the block's ascending eigenvalues.
    """

    first: int
    nodes: np.ndarray
    q: np.ndarray


class _Window(NamedTuple):
    """Fock states ``lo`` to ``lo + e.size``, y's off-diagonal ``e`` on them, two sectors."""

    lo: int
    e: np.ndarray
    sectors: tuple


def _sector_window(n, m, pad):
    """Fock window around quanta n and m, padded by ``pad`` on both sides, split by parity.

    The windowed y is tridiagonal with a zero diagonal, so its square keeps
    the parity of the Fock state: the sector of states lo + first, lo + first
    + 2, ... has the block <o|y^2|o> = e_{o-1}^2 + e_o^2 (a term beyond the
    window's edge dropped), <o|y^2|o+2> = e_o e_{o+1}.  Each block gets its
    own eigensolve, in whose basis (the sector's DVR) every function of y^2
    is diagonal at the nodes, exactly as the windowed y's own DVR would give
    it.
    """
    lo = max(min(n, m) - pad, 0)
    e = position_offdiagonal(lo, max(n, m) + pad)
    square = np.zeros(e.size + 1)
    square[1:] += e * e
    square[:-1] += e * e
    across = e[:-1] * e[1:]
    sectors = []
    for first in (0, 1):
        lam, q = eigh_tridiagonal(square[first::2], across[first::2])
        # the zero eigenvalue of an odd-size window may round below zero
        sectors.append(_Sector(first, np.sqrt(np.maximum(lam, 0.0)), q))
    return _Window(lo, e, tuple(sectors))


def _in_window(window, first, components):
    """The window Fock vector with ``components`` on the sector starting at ``first``."""
    out = np.zeros(window.e.size + 1)
    out[first::2] = components
    return out


def _fock_state(window, n):
    """The unit Fock state n as a (sector, DVR vector, Fock components) triple.

    Its DVR vector is a row of its sector's ``q``; its Fock components are
    exact, so an element between Fock states keeps Fock-space precision.
    """
    first, row = (n - window.lo) % 2, (n - window.lo) // 2
    q = window.sectors[first].q
    unit = np.zeros(q.shape[0])
    unit[row] = 1.0
    return first, q[row], unit


def _applied_coupling(params, pair, window, state):
    """F_jk applied to a (sector, DVR vector, Fock components) state, and the size of its terms.

    An even F is f(nodes) in the DVR of the state's sector.  The odd F13 is
    y h(y^2) with h = F13 / y, which carries the state into the other sector;
    the zero node of an odd-size window adds nothing there, because y
    annihilates its vector.  Both are window Fock vectors: the value, and the
    magnitude sum of the products each of its entries adds up.
    """
    first, dvr, _ = state
    sector = window.sectors[first]
    f = _coupling_batch(params, sector.nodes)[:, pair[0] - 1, pair[1] - 1]
    odd = pair == (1, 3)
    if odd:
        f = np.divide(f, sector.nodes, out=np.zeros_like(f), where=sector.nodes > 0.0)
    weighted = f * dvr
    applied = (_in_window(window, first, sector.q @ weighted),
               _in_window(window, first, np.abs(sector.q) @ np.abs(weighted)))
    return tuple(_position(window.e, v) for v in applied) if odd else applied


def _window_element(params, pair, window, left, right):
    """<left| {d/dy, F_jk} |right> on a window, and the size of the terms it sums.

    ``left`` and ``right`` are (sector, DVR vector, Fock components) triples
    (``_fock_state``, ``_window_h0_state``).  The element is summed from
    Fock-space matvecs as <left| d/dy F |right> - <right| d/dy F |left>
    (d/dy antisymmetric, F symmetric).  The size is the magnitude sum of
    every product that evaluation adds up, F's included, whatever they
    cancel to.
    """
    bra, ket = (_in_window(window, first, fock) for first, _, fock in (left, right))
    (f_bra, size_bra), (f_ket, size_ket) = (
        _applied_coupling(params, pair, window, s) for s in (left, right))
    e = window.e
    value = bra @ _derivative(e, f_ket) - ket @ _derivative(e, f_bra)
    size = np.abs(bra) @ _position(e, size_ket) + np.abs(ket) @ _position(e, size_bra)
    return float(value), float(size)


def v_matrix_element(params: ModelParams, j: int, k: int, n: int, m: int) -> float:
    """<level j, n| derivative-coupling operator |level k, m>, in oscillator quanta.

    The oscillator factors are bare oscillator eigenfunctions, the unit Fock
    states n and m.  Evaluated on a Fock window around them padded by
    4 |n - m| + 64 states; the padding doubles until the value is stable to
    1e-8 relative, else ConvergenceError.  No practical limit on n.
    """
    sigma, pair = _ordered_pair(j, k, n, m)

    def evaluate(pad):
        window = _sector_window(n, m, pad)
        return _window_element(params, pair, window, _fock_state(window, n),
                               _fock_state(window, m))

    value = _refine(evaluate, 4 * abs(n - m) + 64, f"matrix element ({j},{n})<->({k},{m})")
    return -0.5 * sigma * value


#: inverse-iteration steps a rotated-frame state gets to settle
_INVERSE_STEPS = 30


def _rotated_operator(params, level, nq, lo, sector):
    """The single-level rotated problem on one sector, in its DVR, rungs counted from ``nq``.

    The sector's number operator q^T diag(first, first + 2, ...) q, counted
    from the window's first state ``lo`` (counted from 0, N near n = 1e8
    would swamp the DVR in roundoff), plus the diagonal E_level(nodes) +
    lo - nq; E_level depends on y^2 alone.
    """
    quanta = np.arange(sector.first, 2 * sector.nodes.size, 2, dtype=float)
    root = sector.q * np.sqrt(quanta)[:, None]
    # root^T root in scipy's OpenBLAS, the one that factors op (see the module
    # docstring); dsyrk fills the upper triangle only, and mirroring it and
    # halving the doubled diagonal is exact, so op == op.T
    op = dsyrk(1.0, root, trans=1)
    op += op.T
    diag = np.diag_indices_from(op)
    op[diag] *= 0.5
    op[diag] += eigenvalues_at(params, sector.nodes)[:, level - 1] + float(lo - nq)
    return op


def h0_level_fd(params: ModelParams, j: int, n: int) -> float:
    """Dressed energy of level ``j`` from the rotated single-level problem at rung ``n``.

    Solves E_j(y) + (oscillator) on the Fock window of ``n`` padded by 48
    states on each side, one parity sector at a time, and takes the value at
    index ``n - lo`` of the two sectors' merged ascending spectra (``lo`` the
    window's first state), less the rung ``n``.  The padding doubles at most
    four times; once two successive doublings pass ``_converged`` (1e-8
    relative) the later value is returned, else ConvergenceError.
    Independent of the orbit average.
    """
    _check_level(j)
    if n < 0 or n > 2000:
        raise ValueError(f"h0_level_fd supports 0 <= n <= 2000, got {n}")

    def evaluate(pad):
        window = _sector_window(n, n, pad)
        ops = [_rotated_operator(params, j, n, window.lo, s) for s in window.sectors]
        merged = np.sort(np.concatenate([eigvalsh(op) for op in ops]))
        # the operators' norm sets the roundoff floor of their eigenvalues
        return float(merged[n - window.lo]), max(float(np.max(np.sum(np.abs(op), axis=1)))
                                                  for op in ops)

    # one small step between two unsettled windows is not convergence
    return _refine(evaluate, 48, f"dressed level {j} at n={n}", doublings=4, settled=2)


def _window_h0_state(params, level, nq, window):
    """Eigenvector of the windowed single-level rotated problem near one rung.

    The problem keeps Fock parity, so it is solved on the sector of the Fock
    state ``nq`` alone, with ``_rotated_operator``; its eigenvector nearest
    the target <nq| E_level(y) |nq> (the first-order rung, the Rayleigh
    quotient of that Fock state, a row of the sector's ``q`` in its DVR) is
    the distorted oscillator state carrying quantum label ``nq``.  One LU of
    the operator minus the target is applied to that Fock state until the
    residual is below 1e-13 of the operator's infinity norm (at most 30
    steps).  ConvergenceError is raised when the nearest level lies more than
    0.45 from the target, and when the residual does not settle.  Returned
    as a (sector, DVR vector, Fock components) triple, signed so that its
    largest Fock component is positive.
    """
    first, vec, _ = _fock_state(window, nq)
    sector = window.sectors[first]
    shifted = _rotated_operator(params, level, nq, window.lo, sector)
    tol = 1e-13 * np.max(np.sum(np.abs(shifted), axis=1))
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
    fock = sector.q @ vec
    sign = 1.0 if fock[np.argmax(np.abs(fock))] >= 0 else -1.0
    return first, sign * vec, sign * fock


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
        window = _sector_window(n, m, p)
        return _window_element(params, pair, window, _window_h0_state(params, j, n, window),
                               _window_h0_state(params, k, m, window))

    value = _refine(evaluate, 4 * abs(n - m) + 96,
                    f"rotated-frame element ({j},{n})<->({k},{m})")
    return -0.5 * sigma * value
