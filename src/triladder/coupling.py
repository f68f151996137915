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
``v_matrix_element`` takes bare oscillator eigenfunctions and is evaluated
two independent ways, selected by ``method``: a Gauss-Hermite product
quadrature usable up to moderate quantum numbers, and a windowed
Fock-operator construction with no practical limit on n.
``v_matrix_element_h0`` takes the eigenfunctions of the rotated single-level
problem, which the two-state splitting estimate calls for.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

from .dressed import wkb_levels
from .errors import ConvergenceError
from .oscillator import (derivative_from_rows, derivative_matrix,
                         eigenfunction_rows, position_offdiagonal,
                         roots_hermite)
from .trilevel import ModelParams, _chained_bases, eigenvalues_at

#: quantum number cap for the Gauss-Hermite route
HERMITE_MAX_N = 5000

METHOD_HERMITE = "hermite-quadrature"
METHOD_FOCK = "fock-window"

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


def _refine(evaluate, size, what, route):
    """Evaluate at ``size``, then double the size up to three times.

    ``evaluate(size)`` returns ``(value, scale)``; the first doubled value
    that passes ``_converged(new, previous, scale)`` is returned.  Otherwise
    ConvergenceError names ``what``, the refinement ``route`` and the last
    change.
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
        f"{what} not stable under {route} refinement; last change {last_change:.3e}")


#: coupling functions are only evaluated this far beyond the classical turning
#: point; eigenfunction products there are already below double precision
_TURNING_MARGIN = 12.0


def _classical_mask(y, nmax):
    return np.abs(y) <= np.sqrt(2.0 * nmax + 1.0) + _TURNING_MARGIN


def _element_hermite(params, pair, n, m, order):
    """Quadrature value of integral F * (phi_n phi_m' - phi_n' phi_m) dy.

    The integrand is the integrated-by-parts form of the derivative-coupling
    kernel; boundary terms vanish for bound states.  Also returns the
    magnitude sum used as a noise floor for parity-forbidden elements.
    """
    y = roots_hermite(order)[0]
    need = sorted({order - 1, n, m, abs(n - 1), n + 1, abs(m - 1), m + 1})
    rows = eigenfunction_rows(y, need)
    row = {k: rows[i] for i, k in enumerate(need)}
    w = 1.0 / (order * row[order - 1] ** 2)
    pn, pm = row[n], row[m]
    dn = derivative_from_rows(n, row[abs(n - 1)], row[n + 1])
    dm = derivative_from_rows(m, row[abs(m - 1)], row[m + 1])
    inside = _classical_mask(y, max(n, m))
    f = np.zeros(y.size)
    f[inside] = _coupling_batch(params, y[inside])[:, pair[0] - 1, pair[1] - 1]
    terms = w * f * (pn * dm - dn * pm)
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


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
    """Windowed F_jk(y), d/dy and anticommutator {d/dy, F_jk} matrices."""
    f = _coupling_batch(params, nodes)[:, pair[0] - 1, pair[1] - 1]
    fmat = (q * f) @ q.T
    dmat = derivative_matrix(lo, lo + nodes.size - 1)
    return fmat, dmat, dmat @ fmat + fmat @ dmat


def _element_fock(params, pair, n, m, pad):
    lo, nodes, q = _window(n, m, pad)
    fmat, dmat, op = _window_operators(params, pair, lo, nodes, q)
    scale = (np.abs(dmat) @ np.abs(fmat) + np.abs(fmat) @ np.abs(dmat))[n - lo, m - lo]
    return float(op[n - lo, m - lo]), float(scale)


def v_matrix_element(params: ModelParams, j: int, k: int, n: int, m: int,
                     method: str) -> float:
    """<level j, n| derivative-coupling operator |level k, m>, in oscillator quanta.

    The oscillator factors are bare oscillator eigenfunctions.  ``method`` is
    METHOD_HERMITE (n, m <= HERMITE_MAX_N) or METHOD_FOCK.  Both methods
    refine themselves (node doubling, window-padding doubling) until the
    result is stable to 1e-8 relative, and raise ConvergenceError otherwise.
    """
    sigma, pair = _ordered_pair(j, k, n, m)
    if method == METHOD_HERMITE:
        if max(n, m) > HERMITE_MAX_N:
            raise ValueError(
                f"{METHOD_HERMITE} supports n, m <= {HERMITE_MAX_N}; use {METHOD_FOCK}")
        size = 2 * max(n, m) + 64
        evaluate = lambda s: _element_hermite(params, pair, n, m, s)
    elif method == METHOD_FOCK:
        size = 4 * abs(n - m) + 64
        evaluate = lambda s: _element_fock(params, pair, n, m, s)
    else:
        raise ValueError(f"unknown method {method!r}")
    value = _refine(evaluate, size, f"matrix element ({j},{n})<->({k},{m})", method)
    return -0.5 * sigma * value


def _window_h0_state(params, level, nq, lo, nodes, q, target_dressed):
    """Eigenvector of the windowed single-level rotated problem near one rung.

    The operator is (number operator) + E_level(y) on the window's Fock states
    from ``lo``; its eigenvector with eigenvalue nearest
    ``target_dressed + nq`` is the distorted oscillator state carrying
    quantum label ``nq``.
    """
    energies = eigenvalues_at(params, nodes)[:, level - 1]
    h0 = (q * energies) @ q.T
    idx = np.arange(nodes.size)
    h0[idx, idx] += (lo + idx) - float(nq)   # oscillator rungs counted from nq
    vals, vecs = scipy.linalg.eigh(h0, subset_by_value=(target_dressed - 0.45,
                                                        target_dressed + 0.45))
    if vals.size == 0:
        raise ConvergenceError(
            f"no rotated-frame level within 0.45 of the predicted rung (level {level}, n={nq})")
    pick = int(np.argmin(np.abs(vals - target_dressed)))
    vec = vecs[:, pick]
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
    # rung identification only needs the dressed values to a fraction of one
    # quantum, so a kinked integrand (decoupled-level crossing) is tolerable
    dressed = wkb_levels(params, max(n, m), tol=1e-6)

    def evaluate(p):
        lo, nodes, q = _window(n, m, p)
        uj = _window_h0_state(params, j, n, lo, nodes, q, dressed[j - 1])
        uk = _window_h0_state(params, k, m, lo, nodes, q, dressed[k - 1])
        # built after the two eigensolves so the dense operators and the
        # eigensolver workspace are never held at once (peak memory)
        _, _, op = _window_operators(params, pair, lo, nodes, q)
        return float(uj @ op @ uk), float(np.abs(uj) @ (np.abs(op) @ np.abs(uk)))

    value = _refine(evaluate, 4 * abs(n - m) + 96,
                    f"rotated-frame element ({j},{n})<->({k},{m})", "window")
    return -0.5 * sigma * value

