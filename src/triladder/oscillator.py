"""Harmonic-oscillator eigenfunctions, quadrature, and windowed Fock operators.

Everything here is for the dimensionless oscillator with Hamiltonian
(1/2)(-d^2/dy^2 + y^2), whose orthonormal eigenfunctions phi_n satisfy the
three-term recurrence

    phi_{n+1}(y) = sqrt(2/(n+1)) * y * phi_n(y) - sqrt(n/(n+1)) * phi_{n-1}(y)

and the ladder identity phi_n' = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1}.
"""

from __future__ import annotations

import numpy as np
from scipy.special import roots_hermite

#: rebase the shared power-of-two exponent roughly this often during recurrence
_REBASE_EVERY = 16

_LOG_PI_QUARTER = 0.25 * np.log(np.pi)
_LOG2 = np.log(2.0)


def eigenfunction_rows(y, rows):
    """Evaluate phi_k(y) for the requested quantum numbers ``rows``.

    The recurrence runs upward on the eigenfunctions themselves while carrying
    a per-point power-of-two exponent, so evaluation stays correct far outside
    the classically allowed region where phi_0 alone would underflow.  Values
    that genuinely fall below the double range materialize as 0.

    Returns an array of shape ``(len(rows), y.size)``.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    rows = [int(k) for k in rows]
    if any(k < 0 for k in rows):
        raise ValueError(f"quantum numbers must be >= 0, got {rows}")
    kmax = max(rows)
    want = {}
    for pos, k in enumerate(rows):
        want.setdefault(k, []).append(pos)
    out = np.zeros((len(rows), y.size))

    log2_phi0 = (-0.5 * y * y - _LOG_PI_QUARTER) / _LOG2
    expo = np.floor(log2_phi0)
    cur = np.exp2(log2_phi0 - expo)
    prev = np.zeros_like(cur)
    expo = expo.astype(np.int64)

    def emit(k, mantissa):
        for pos in want.get(k, ()):
            out[pos] = np.ldexp(mantissa, np.clip(expo, -2100, 2100).astype(np.int32))

    emit(0, cur)
    for k in range(kmax):
        cur, prev = (np.sqrt(2.0 / (k + 1)) * y * cur
                     - np.sqrt(k / (k + 1.0)) * prev), cur
        if (k + 1) % _REBASE_EVERY == 0:
            _, shift = np.frexp(cur)
            shift = shift.astype(np.int64)
            scale = np.exp2(-shift.astype(float))
            cur = cur * scale
            prev = prev * scale
            expo = expo + shift
        emit(k + 1, cur)
    return out


def derivative_from_rows(n, row_below, row_above):
    """phi_n'(y) from the neighbouring eigenfunctions via the ladder identity."""
    d = -np.sqrt((n + 1) / 2.0) * row_above
    if n > 0:
        d = d + np.sqrt(n / 2.0) * row_below
    return d


def product_quadrature(order):
    """Quadrature integrating products of oscillator eigenfunctions.

    Returns nodes ``y`` and weights ``w`` such that sum(w * g(y)) equals
    integral g(y) dy exactly whenever g = p(y) * exp(-y^2) with p a polynomial
    of degree <= 2*order - 1.  The weights are the Gauss-Hermite ones with the
    Gaussian divided out, computed through the Christoffel identity
    w_i = 1 / (order * phi_{order-1}(y_i)^2), which stays in range at any
    order because the eigenfunction is evaluated at quadrature nodes only.
    """
    order = int(order)
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    y = roots_hermite(order)[0]
    phi = eigenfunction_rows(y, [order - 1])[0]
    return y, 1.0 / (order * phi * phi)


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
