"""Adiabatic diagonalization of the three-level block at a fixed oscillator coordinate.

The three bare levels couple in a ladder scheme: 1<->2 with per-quantum
amplitude ``u`` and 2<->3 with amplitude ``v``.  Treating the oscillator
coordinate ``y`` as a parameter gives a real symmetric tridiagonal 3x3 matrix
whose eigenvalues are obtained in closed form from the depressed-cubic
characteristic equation via the triple-angle sine identity.  Eigenvectors are
computed from row cross products of the shifted matrix; their column signs
are fixed by the dominant component, by a reference basis, or by continuity
along an ascending scan, which is the basis the derivative couplings use.
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

#: phase shifts 2 pi k of the three cubic branches
_SHIFTS = np.array([0.0, 2.0 * np.pi, 4.0 * np.pi])


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

    ``u`` and ``v`` default to the couplings of ``params``; arrays that
    broadcast against ``y`` evaluate many coupling points at once.
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


def _branches(params: ModelParams, y, u=None, v=None):
    """The three roots of the cubic, unsorted: branch k = 0, 1, 2 on the last axis.

    For the arcsin angle theta in [-pi/2, pi/2] the branches are ordered
    k = 2 <= k = 0 <= k = 1, so ``[..., [2, 0, 1]]`` is ascending without a sort.
    ``u`` and ``v`` are as in :func:`_cubic_terms`.
    """
    alpha, beta, mean = _cubic_terms(params, y, u, v)
    amp = np.sqrt(4.0 * np.asarray(alpha) / 3.0)
    if np.any(amp < _DEGENERATE_CUBIC):
        raise DegenerateLevelsError(y, None, "cubic amplitude vanishes; spectrum degenerate")
    s = -4.0 * np.asarray(beta) / amp**3
    if np.any(np.abs(s) > 1.0 + _ARCSIN_SLACK):
        raise TriladderError("arcsin argument exceeds 1 beyond roundoff slack")
    theta = np.arcsin(np.clip(s, -1.0, 1.0))
    return mean + amp[..., None] * np.sin((theta[..., None] + _SHIFTS) / 3.0)


def eigenvalues_at(params: ModelParams, y) -> np.ndarray:
    """Sorted adiabatic energies E1(y) <= E2(y) <= E3(y).

    Accepts scalar or array ``y``; array input returns shape ``y.shape + (3,)``.
    The roots come from the triple-angle sine form of the cubic, so the call is
    cheap and fully vectorized.
    """
    scalar = np.isscalar(y) or np.ndim(y) == 0
    roots = np.sort(_branches(params, y), axis=-1)
    return roots[0] if (scalar and roots.ndim == 2) else roots


def _det3(b):
    """Determinants of a stack of 3x3 matrices."""
    return (b[..., 0, 0] * (b[..., 1, 1] * b[..., 2, 2] - b[..., 1, 2] * b[..., 2, 1])
            - b[..., 0, 1] * (b[..., 1, 0] * b[..., 2, 2] - b[..., 1, 2] * b[..., 2, 0])
            + b[..., 0, 2] * (b[..., 1, 0] * b[..., 2, 1] - b[..., 1, 1] * b[..., 2, 0]))


def _null_candidates(params, y, energies):
    """Cross products of row pairs of (M - E*I) for each eigenvalue.

    ``y`` has shape (N,), ``energies`` (N, 3).  Returns (N, 3, 3cand, 3comp).
    """
    wu = math.sqrt(2.0) * params.u * y
    wv = math.sqrt(2.0) * params.v * y
    a = params.e1 - energies
    b = params.e2 - energies
    c = params.e3 - energies
    wu = wu[:, None]
    wv = wv[:, None]
    zero = np.zeros_like(a)
    # rows of the shifted matrix: (a, wu, 0), (wu, b, wv), (0, wv, c)
    c12 = np.stack([wu * wv + zero, -a * wv, a * b - wu * wu], axis=-1)
    c23 = np.stack([b * c - wv * wv, -wu * c, wu * wv + zero], axis=-1)
    c13 = np.stack([wu * c, -a * c, a * wv], axis=-1)
    return np.stack([c12, c23, c13], axis=-2)


def _raw_bases(params, y, energies):
    """Unit eigenvector columns (N, 3, 3) before any sign convention."""
    cand = _null_candidates(params, y, energies)
    norms = np.linalg.norm(cand, axis=-1)
    best = np.argmax(norms, axis=-1)
    vecs = np.take_along_axis(cand, best[..., None, None], axis=-2)[..., 0, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        vecs = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)
        # one modified Gram-Schmidt pass keeps orthonormality at roundoff level
        v1, v2, v3 = vecs[:, 0], vecs[:, 1], vecs[:, 2]
        v2 = v2 - np.sum(v2 * v1, axis=-1, keepdims=True) * v1
        v2 = v2 / np.linalg.norm(v2, axis=-1, keepdims=True)
        v3 = v3 - np.sum(v3 * v1, axis=-1, keepdims=True) * v1
        v3 = v3 - np.sum(v3 * v2, axis=-1, keepdims=True) * v2
        v3 = v3 / np.linalg.norm(v3, axis=-1, keepdims=True)
    out = np.stack([v1, v2, v3], axis=-1)
    if not np.all(np.isfinite(out)):
        raise DegenerateLevelsError(None, None,
                                    "eigenvector basis collapsed (levels too close)")
    return out


def _orient(bases, score):
    """Each column signed to make its ``score`` (N, 3) positive; det forced to +1.

    Where those signs give det = -1, the column with the smallest |score|
    (the least certain sign) is flipped back.
    """
    signs = np.where(score < 0, -1.0, 1.0)
    bases = bases * signs[:, None, :]
    bad = _det3(bases) < 0
    if np.any(bad):
        weakest = np.argmin(np.abs(score), axis=-1)
        flip = np.ones_like(signs)
        np.put_along_axis(flip, weakest[:, None], -1.0, axis=1)
        bases = np.where(bad[:, None, None], bases * flip[:, None, :], bases)
    return bases


def _check_separation(y, energies, guard=DEGENERACY_GUARD):
    gaps = np.diff(energies, axis=-1)
    tight = np.min(gaps, axis=-1)
    # near a double root the trigonometric formula resolves the gap only to
    # about sqrt(eps) of the spectral spread, so the refusal threshold must
    # scale with the spread; the absolute floor still applies
    spread = energies[..., 2] - energies[..., 0]
    limit = np.maximum(guard, 5e-8 * spread)
    if np.any(tight < limit):
        i = int(np.argmin(tight - limit))
        raise DegenerateLevelsError(float(np.asarray(y).reshape(-1)[i]),
                                    np.asarray(energies).reshape(-1, 3)[i])


def _eigensystem(params, y, reference=None):
    """Vectorized levels and sign-fixed bases at coordinates ``y`` (1-D array).

    ``reference`` may be a single (3, 3) matrix or a per-point (N, 3, 3)
    stack, and each column takes the sign of positive overlap with it;
    without it, each column's largest component is made positive.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    energies = eigenvalues_at(params, y)
    _check_separation(y, energies)
    bases = _raw_bases(params, y, energies)
    if reference is None:
        idx = np.argmax(np.abs(bases), axis=1)
        score = np.take_along_axis(bases, idx[:, None, :], axis=1)[:, 0, :]
    else:
        reference = np.broadcast_to(np.asarray(reference, dtype=float), bases.shape)
        score = np.einsum("nij,nij->nj", bases, reference)
    return energies, _orient(bases, score)


def _chained_bases(params, y):
    """Bases along ascending ``y`` with column signs continued point to point.

    The first point uses the dominant-component convention; every later point
    inherits the sign that keeps each column aligned with its predecessor.
    The derivative couplings are evaluated on this basis.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("chained bases need a non-empty 1-D coordinate array")
    if y.size > 1 and np.any(np.diff(y) <= 0):
        raise ValueError("chained bases need strictly ascending coordinates")
    energies, bases = _eigensystem(params, y)
    if y.size == 1:
        return energies, bases
    ov = np.einsum("nij,nij->nj", bases[1:], bases[:-1])
    if np.min(np.abs(ov)) < _CHAIN_OVERLAP_FLOOR:
        k = int(np.argmin(np.min(np.abs(ov), axis=-1)))
        raise TrackingError(
            f"eigenbasis rotates too fast between y={y[k]} and y={y[k + 1]}; "
            "refine the scan before differentiating")
    signs = np.cumprod(np.where(ov < 0, -1.0, 1.0), axis=0)
    out = bases.copy()
    out[1:] *= signs[:, None, :]
    return energies, out

