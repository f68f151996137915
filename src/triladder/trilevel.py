"""Adiabatic diagonalization of the three-level block at a fixed oscillator coordinate.

The three bare levels couple in a ladder scheme: 1<->2 with per-quantum
amplitude ``u`` and 2<->3 with amplitude ``v``.  Treating the oscillator
coordinate ``y`` as a parameter gives a real symmetric tridiagonal 3x3 matrix
whose eigenvalues are obtained in closed form from the depressed-cubic
characteristic equation via the triple-angle sine identity.  Eigenvectors
come from LAPACK through numpy's batched ``eigh``, whose own eigenvalues are
discarded.  Their column signs follow one gauge: continuity along an
ascending scan, oriented at the point nearest y = 0 so that each column's
largest component is positive and the basis has det = +1.  The derivative
couplings use that basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateLevelsError, TrackingError, TriladderError

#: smallest allowed separation between bare level energies, in oscillator quanta
MIN_BARE_GAP = 1e-6

#: below this pairwise level separation the eigenbasis is refused
DEGENERACY_GUARD = 1e-8

#: tolerated excess of |sin(theta)| over 1 before clamping is considered a bug
_ARCSIN_SLACK = 1e-10

#: amplitude of the depressed cubic below which the spectrum is treated as degenerate
_DEGENERATE_CUBIC = 1e-12

#: chained sign fixing refuses when consecutive bases overlap less than this
_CHAIN_OVERLAP_FLOOR = 0.3


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the coupled three-level/oscillator model.

    All energies are in units of the oscillator quantum (taken as 1).

    Parameters
    ----------
    e1, e2, e3 : float
        Bare level energies, strictly increasing with a minimum gap.
    u, v : float
        Per-quantum coupling amplitudes of the 1<->2 and 2<->3 transitions.
        Non-negative; a sign can always be absorbed into a basis phase.
    n0 : int
        Reference oscillator quantum number (>= 1).
    """

    e1: float
    e2: float
    e3: float
    u: float
    v: float
    n0: int

    def __post_init__(self):
        for name in ("e1", "e2", "e3", "u", "v"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if not (self.e2 - self.e1 >= MIN_BARE_GAP and self.e3 - self.e2 >= MIN_BARE_GAP):
            raise ValueError(
                f"bare energies must be strictly ordered with gaps >= {MIN_BARE_GAP}: "
                f"({self.e1}, {self.e2}, {self.e3})"
            )
        if self.u < 0 or self.v < 0:
            raise ValueError(f"coupling amplitudes must be non-negative: u={self.u}, v={self.v}")
        if int(self.n0) != self.n0 or self.n0 < 1:
            raise ValueError(f"n0 must be an integer >= 1, got {self.n0}")
        object.__setattr__(self, "n0", int(self.n0))
        if not (math.isfinite(self.g1) and math.isfinite(self.g2)):
            raise ValueError("derived dimensionless couplings are not finite")

    @property
    def g1(self) -> float:
        """Dimensionless 1<->2 coupling u*sqrt(n0)/(e2-e1)."""
        return self.u * math.sqrt(self.n0) / (self.e2 - self.e1)

    @property
    def g2(self) -> float:
        """Dimensionless 2<->3 coupling v*sqrt(n0)/(e3-e2)."""
        return self.v * math.sqrt(self.n0) / (self.e3 - self.e2)

    @classmethod
    def from_dimensionless(cls, e1, e2, e3, g1, g2, n0) -> "ModelParams":
        """Build params from the dimensionless couplings instead of (u, v)."""
        return cls(e1, e2, e3, *_amplitudes(e1, e2, e3, int(n0), g1, g2), int(n0))

    def with_couplings(self, g1, g2) -> "ModelParams":
        """Same bare levels and n0, couplings replaced via (g1, g2)."""
        u, v = _amplitudes(self.e1, self.e2, self.e3, self.n0, g1, g2)
        return replace(self, u=u, v=v)


def _amplitudes(e1, e2, e3, n0, g1, g2):
    """Amplitudes (u, v) of the dimensionless couplings (g1, g2).

    u = g1 (e2 - e1) / sqrt(n0) and v = g2 (e3 - e2) / sqrt(n0), elementwise
    when ``g1`` and ``g2`` are arrays; the inverse of ``ModelParams.g1``/``g2``.
    """
    rt = math.sqrt(n0)
    return g1 * (e2 - e1) / rt, g2 * (e3 - e2) / rt


def level_matrix(params: ModelParams, y) -> np.ndarray:
    """The 3x3 three-level matrix at oscillator coordinate ``y``.

    For array ``y`` the result has shape ``y.shape + (3, 3)``.
    """
    y = np.asarray(y, dtype=float)
    wu = math.sqrt(2.0) * params.u * y
    wv = math.sqrt(2.0) * params.v * y
    m = np.zeros(y.shape + (3, 3))
    m[..., 0, 0] = params.e1
    m[..., 1, 1] = params.e2
    m[..., 2, 2] = params.e3
    m[..., 0, 1] = m[..., 1, 0] = wu
    m[..., 1, 2] = m[..., 2, 1] = wv
    return m


def _cubic_terms(params: ModelParams, y, u=None, v=None):
    """alpha, beta of the depressed cubic, broadcast over ``y``.

    ``u`` and ``v`` default to the couplings of ``params``; the orbit average
    passes columns of coupling points that broadcast against a row of ``y``.
    """
    u = params.u if u is None else u
    v = params.v if v is None else v
    mean = (params.e1 + params.e2 + params.e3) / 3.0
    d1 = params.e1 - mean
    d2 = params.e2 - mean
    d3 = params.e3 - mean
    y = np.asarray(y, dtype=float)
    uy2 = 2.0 * (u * y) ** 2
    vy2 = 2.0 * (v * y) ** 2
    alpha = 0.5 * (d1 * d1 + d2 * d2 + d3 * d3) + uy2 + vy2
    beta = d1 * d2 * d3 - uy2 * d3 - vy2 * d1
    return alpha, beta, mean


def _trig_form(params: ModelParams, y, u=None, v=None):
    """(mean, amp sin(phi), amp cos(phi)) of the roots mean + amp sin(phi + 2 pi k/3).

    phi, a third of the arcsin angle, lies in [-pi/6, pi/6]; ``u`` and ``v``
    are as in :func:`_cubic_terms`.  Raises DegenerateLevelsError when the
    amplitude vanishes or the arcsin argument is NaN (y or the cubic not
    finite), and TriladderError when it exceeds 1 by more than roundoff.
    """
    alpha, beta, mean = _cubic_terms(params, y, u, v)
    amp = np.sqrt(4.0 * np.asarray(alpha) / 3.0)
    if np.any(amp < _DEGENERATE_CUBIC):
        raise DegenerateLevelsError(y, None, "cubic amplitude vanishes; spectrum degenerate")
    s = -4.0 * np.asarray(beta) / amp**3
    # written so that a NaN argument fails the test as well
    if not np.all(np.abs(s) <= 1.0 + _ARCSIN_SLACK):
        if np.any(np.isnan(s)):
            raise DegenerateLevelsError(y, None, "cubic is not finite (y or couplings overflow)")
        raise TriladderError("arcsin argument exceeds 1 beyond roundoff slack")
    sin = np.sin(np.arcsin(np.clip(s, -1.0, 1.0)) / 3.0)
    # cos(phi) >= sqrt(3)/2 on [-pi/6, pi/6], so the root loses nothing
    cos = np.sqrt(1.0 - sin * sin)
    return mean, amp * sin, amp * cos


def _ascending(mean, s, c, count=1):
    """The roots mean + (-s/2 - sqrt(3) c/2, s, -s/2 + sqrt(3) c/2) on a new last axis.

    With (s, c) from :func:`_trig_form` these are the three roots, ascending
    since sqrt(3) c/2 >= 3 |s|/2 for |phi| <= pi/6.  When ``s`` and ``c`` are
    sums over ``count`` points, the means of the roots come back.
    """
    c = 0.5 * math.sqrt(3.0) * c
    return np.stack([mean + (-0.5 * s - c) / count, mean + s / count,
                     mean + (-0.5 * s + c) / count], axis=-1)


def eigenvalues_at(params: ModelParams, y) -> np.ndarray:
    """Sorted adiabatic energies E1(y) <= E2(y) <= E3(y).

    Accepts scalar or array ``y``; array input returns shape ``y.shape + (3,)``.
    The closed triple-angle form of the cubic gives the roots in order, so the
    call is cheap and fully vectorized.
    """
    return _ascending(*_trig_form(params, y))


def _check_separation(y, energies):
    gaps = np.diff(energies, axis=-1)
    tight = np.min(gaps, axis=-1)
    # near a double root the trigonometric formula resolves the gap only to
    # about sqrt(eps) of the spectral spread, so the refusal threshold must
    # scale with the spread; the absolute floor still applies
    spread = energies[..., 2] - energies[..., 0]
    limit = np.maximum(DEGENERACY_GUARD, 5e-8 * spread)
    # written so that NaN levels, from a non-finite y, are refused as well
    if not np.all(tight >= limit):
        i = int(np.argmin(tight - limit))
        raise DegenerateLevelsError(float(np.asarray(y).reshape(-1)[i]),
                                    np.asarray(energies).reshape(-1, 3)[i])


def _chained_bases(params, y):
    """Levels and adiabatic bases along ascending ``y``, in one continuous sign gauge.

    The levels are the closed-form roots of :func:`eigenvalues_at`, checked
    for separation before any vector is taken; the columns are LAPACK's
    orthonormal eigenvectors of :func:`level_matrix`, in the same ascending
    order.  Their signs are chained point to point: each column keeps the
    sign that makes its overlap with the same column at the previous point
    positive, and an overlap below 0.3 in magnitude is refused as a
    TrackingError.  The whole chain is then oriented at one anchor, the
    point nearest y = 0 (a single point is its own anchor): each column's
    largest component there is made positive, and if that leaves det = -1
    the column whose largest component is smallest in magnitude (the least
    certain sign) is flipped back, so every basis has det = +1.  Near y = 0
    the basis is close to the bare levels', so the rule is unambiguous
    there, and the gauge does not depend on how far the grid reaches.  The
    derivative couplings are evaluated on this basis.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("chained bases need a non-empty 1-D coordinate array")
    if y.size > 1 and np.any(np.diff(y) <= 0):
        raise ValueError("chained bases need strictly ascending coordinates")
    energies = eigenvalues_at(params, y)
    _check_separation(y, energies)
    bases = np.linalg.eigh(level_matrix(params, y))[1]
    ov = np.einsum("nij,nij->nj", bases[1:], bases[:-1])
    if y.size > 1 and np.min(np.abs(ov)) < _CHAIN_OVERLAP_FLOOR:
        k = int(np.argmin(np.min(np.abs(ov), axis=-1)))
        raise TrackingError(
            f"eigenbasis rotates too fast between y={y[k]} and y={y[k + 1]}; "
            "refine the scan before differentiating")
    signs = np.cumprod(np.vstack([np.ones((1, 3)), np.where(ov < 0, -1.0, 1.0)]), axis=0)
    a = int(np.argmin(np.abs(y)))
    anchor = bases[a] * signs[a]
    dominant = anchor[np.argmax(np.abs(anchor), axis=0), np.arange(3)]
    orient = np.where(dominant < 0, -1.0, 1.0)
    if np.linalg.det(anchor * orient) < 0:
        orient[np.argmin(np.abs(dominant))] *= -1.0
    return energies, bases * (signs * orient)[:, None, :]
