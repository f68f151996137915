"""Exact reference solver on a truncated Fock window.

The full Hamiltonian conserves the parity of (level index + oscillator
quantum), so each parity sector is a real symmetric banded matrix on the
product basis {level i} x {n0-W .. n0+W}.  Every energy this module takes
or returns is measured from n0 * hbar_omega0, the frame the matrix is
assembled in: its diagonal is e_i + (n - n0), so eigenvalues keep machine
precision even at n0 = 1e8, where adding the offset back would round them
to ulp(1e8) ~ 1.5e-8.  The structure of a sector (labels, band positions,
sqrt(n) factors) is built once per window and parity, so assembly at a new
coupling is a diagonal fill plus two scaled scatters.

Eigenpairs come from one route: shift-invert Lanczos whose inverse is a
banded LU of H - sigma, started from the vectors already tracked at the
previous point.  Around it the module continues eigenpairs along coupling
sweeps by eigenvector overlap (energy order swaps at every anticrossing, the
vectors do not), locates anticrossing gap minima by a coarse-to-fine scan
steered by the exact level slopes, which profiles the distance from the
tracked pair to its nearest other level and polishes each minimum of it by a
bounded scalar minimization (a minimum is the pair's own when no third level
is nearer to either member than its partner), and rasterizes
resonance-sharpness maps from the tracked exact spectrum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse.linalg
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.optimize import linear_sum_assignment, minimize_scalar

from .dressed import _line_resonance
from .errors import ConvergenceError, TrackingError, TriladderError
from .selection import (_check_transition, _exchange, _nearest_exchange, _sector_of,
                        central_quantum)
from .trilevel import ModelParams

#: resolve tracked-state identities only when the best overlap clears this
OVERLAP_FLOOR = 0.5

#: two candidate overlaps closer than this make the assignment ambiguous
AMBIGUITY = 1e-3

#: a sweep step is halved at most this many times before tracking gives up
_MAX_REFINES = 14


@dataclass(frozen=True, eq=False)
class FockWindowHamiltonian:
    """One parity sector of the windowed Hamiltonian in banded storage.

    ``bands`` holds the lower bands (diagonal first); the diagonal is
    e_i + (n - n0), so every energy of the sector is measured from
    n0 * hbar_omega0.  ``labels`` lists the (level, quantum-number) pair of
    every basis state in matrix order; it is read-only because every assembly
    on the same window shares it.
    """

    params: ModelParams
    n0: int
    half_width: int
    parity: str
    labels: np.ndarray
    bands: np.ndarray

    @property
    def dim(self) -> int:
        return self.labels.shape[0]

    def dense(self) -> np.ndarray:
        """Dense symmetric matrix (mostly for small cross-checks)."""
        dim = self.dim
        m = np.zeros((dim, dim))
        m[np.diag_indices(dim)] = self.bands[0]
        for r in range(1, self.bands.shape[0]):
            idx = np.arange(dim - r)
            m[idx + r, idx] = self.bands[r, :dim - r]
            m[idx, idx + r] = self.bands[r, :dim - r]
        return m

    def matvec(self, x) -> np.ndarray:
        """Product of the matrix with vectors (dim,) or (dim, k)."""
        x = np.asarray(x)
        y = self.bands[0].reshape(-1, *([1] * (x.ndim - 1))) * x
        for r in range(1, self.bands.shape[0]):
            band = self.bands[r, :self.dim - r].reshape(-1, *([1] * (x.ndim - 1)))
            y[r:] += band * x[:-r]
            y[:-r] += band * x[r:]
        return y

    def norm_estimate(self) -> float:
        """Upper bound on the spectral norm from row sums of the bands."""
        dim = self.dim
        total = np.abs(self.bands[0]).copy()
        for r in range(1, self.bands.shape[0]):
            band = np.abs(self.bands[r, :dim - r])
            total[r:] += band
            total[:-r] += band
        return float(total.max())

    def index_of(self, level, nq) -> int:
        """Matrix index of basis state (level, nq); ValueError if the sector lacks it."""
        hit = np.nonzero((self.labels[:, 0] == level) & (self.labels[:, 1] == nq))[0]
        if hit.size != 1:
            raise ValueError(f"state ({level}, {nq}) is not in the {self.parity} sector "
                             f"of the window n0 +- W = {self.n0} +- {self.half_width}")
        return int(hit[0])

    def truncation_bound(self, vals, vecs) -> np.ndarray:
        """Per eigenpair, a distance within which the untruncated H has an eigenvalue.

        The unit columns of ``vecs``, padded with zeros, have a full-space
        residual of at most their window residual plus the couplings that
        leave the window: only the outermost rungs n0 +- W couple out, by at
        most sqrt(u^2 + v^2) sqrt(n0 + W + 1) times their norm.  Some exact
        eigenvalue lies within the residual norm of each value (Parlett, The
        Symmetric Eigenvalue Problem, Thm 4.5.1).
        """
        inside = np.linalg.norm(self.matvec(vecs) - vals * vecs, axis=0)
        edge = np.abs(self.labels[:, 1] - self.n0) == self.half_width
        leak = math.hypot(self.params.u, self.params.v) * math.sqrt(self.n0 + self.half_width + 1)
        return inside + leak * np.linalg.norm(vecs[edge], axis=0)


class _Sector(NamedTuple):
    """Coupling-independent structure of one parity sector (read-only arrays).

    ``ladders`` holds, for the u and the v ladder, the (band, column)
    positions of its lower-band entries and their sqrt(n) factors.
    """

    labels: np.ndarray      # (dim, 2) level, quantum number
    level: np.ndarray       # level index 0..2 of every state
    shift: np.ndarray       # n - n0 as float
    ladders: tuple          # (band rows, columns, sqrt factors) for u, for v


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def _sector(n0, half_width, parity) -> _Sector:
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    nq = np.repeat(np.arange(n0 - half_width, n0 + half_width + 1, dtype=np.int64), 3)
    lvl = np.tile(np.arange(1, 4, dtype=np.int64), 2 * half_width + 1)
    keep = (lvl + nq) % 2 == (parity == "odd")
    labels = np.column_stack([lvl[keep], nq[keep]])
    # labels are sorted by n then level, so this key is sorted too
    key = 4 * labels[:, 1] + labels[:, 0]

    def find(level, n):
        pos = np.minimum(np.searchsorted(key, 4 * n + level), key.size - 1)
        return pos, key[pos] == 4 * n + level

    ladders = []
    for lvl_from in (1, 2):
        i = np.nonzero(labels[:, 0] == lvl_from)[0]
        n = labels[i, 1]
        # (lvl, n) <-> (lvl + 1, n + 1): partner after i, factor sqrt(n + 1)
        up, has_up = find(lvl_from + 1, n + 1)
        # (lvl, n) <-> (lvl + 1, n - 1): partner before i, factor sqrt(n)
        down, has_down = find(lvl_from + 1, n - 1)
        ladders.append(_read_only(
            np.concatenate([up[has_up] - i[has_up], i[has_down] - down[has_down]]),
            np.concatenate([i[has_up], down[has_down]]),
            np.sqrt(np.concatenate([n[has_up] + 1, n[has_down]]).astype(float))))
    level, shift = labels[:, 0] - 1, (labels[:, 1] - n0).astype(float)
    _read_only(labels, level, shift)
    return _Sector(labels, level, shift, tuple(ladders))


def _check_window(n0, half_width, which=()):
    """ValueError unless n0 +- ``half_width`` is a window that holds the labels ``which``."""
    if half_width < 8:
        raise ValueError("window half-width must be at least 8")
    if n0 - half_width < 0:
        raise ValueError(f"window underflows the vacuum: n0={n0}, W={half_width}")
    for level, nq in which:
        if abs(nq - n0) > half_width:
            raise ValueError(f"state ({level}, {nq}) is not in the {_sector_of([(level, nq)])} "
                             f"sector of the window n0 +- W = {n0} +- {half_width}")


def build_hamiltonian(params: ModelParams, n0: int, half_width: int,
                      parity: str) -> FockWindowHamiltonian:
    """Assemble one parity sector of the windowed Hamiltonian.

    Diagonal entries are e_i + (n - n0); ladder couplings connect
    (1, n) <-> (2, n +- 1) with amplitude u * sqrt(max n) and
    (2, n) <-> (3, n +- 1) with amplitude v * sqrt(max n).
    """
    n0 = int(n0)
    half_width = int(half_width)
    _check_window(n0, half_width)
    sector = _sector(n0, half_width, parity)
    bands = np.zeros((3, sector.labels.shape[0]))
    bands[0] = np.array([params.e1, params.e2, params.e3])[sector.level] + sector.shift
    for amp, (rows, cols, roots) in zip((params.u, params.v), sector.ladders):
        bands[rows, cols] = amp * roots
    return FockWindowHamiltonian(params, n0, half_width, parity, sector.labels, bands)


def _cluster_targets(targets):
    targets = np.sort(np.asarray(targets, dtype=float))
    groups = [[targets[0]]]
    for t in targets[1:]:
        if t - groups[-1][-1] <= 3.0:
            groups[-1].append(t)
        else:
            groups.append([t])
    return groups


def _lanczos(h, sigma, k, v0, group):
    """k eigenpairs nearest sigma; H - sigma is factored once as a banded LU."""
    nb = h.bands.shape[0] - 1
    # LAPACK general band storage, nb rows of room for the pivoting fill-in:
    # entry (i, j) of H - sigma sits at row 2 nb + i - j, column j
    ab = np.zeros((3 * nb + 1, h.dim))
    ab[2 * nb] = h.bands[0] - sigma
    for r in range(1, nb + 1):
        ab[2 * nb + r, :h.dim - r] = h.bands[r, :h.dim - r]
        ab[2 * nb - r, r:] = h.bands[r, :h.dim - r]
    lu, piv, info = dgbtrf(ab, nb, nb, overwrite_ab=1)
    if info != 0:
        raise ConvergenceError(
            f"banded LU of H - sigma failed (info {info}) at sigma={sigma} for targets {group}")
    shape = (h.dim, h.dim)
    a = scipy.sparse.linalg.LinearOperator(shape, matvec=h.matvec, dtype=float)
    inverse = scipy.sparse.linalg.LinearOperator(
        shape, matvec=lambda b: dgbtrs(lu, nb, nb, b, piv)[0], dtype=float)
    try:
        # rng only draws a restart vector if the Krylov space closes early
        return scipy.sparse.linalg.eigsh(a, k=k, sigma=sigma, v0=v0, OPinv=inverse, rng=0)
    except scipy.sparse.linalg.ArpackError as err:
        raise ConvergenceError(f"shift-invert did not converge near {group}: {err}") from err


def _shift_invert_near(h, targets, seeds=None, k=None):
    """Eigenpairs around each target.

    Targets within 3 of each other form a group; each group gets the ``k``
    eigenpairs nearest sigma = mean + 1.1e-4 (4 + 3 per target by default),
    from shift-invert Lanczos over a banded LU of H - sigma.  The iteration
    starts from the sum of ``seeds``, the (dim, L) vectors the caller already
    holds for the tracked states, plus a uniform part of norm 1e-3 (a uniform
    start without seeds).  The uniform part keeps every basis state in the
    start: where one coupling vanishes H splits into blocks, and a start
    confined to the seeds' block would never see the eigenvalues of the
    others.  A diagonal sector (zero coupling) returns its basis states
    instead: they are exact, and degenerate multiplets must not be left to
    an iterative solver's whim.

    Duplicates from overlapping shifts are removed by eigenvalue proximity
    plus vector overlap (a genuinely tight anticrossing pair stays distinct
    because its two vectors are orthogonal).  Deterministic given the seed
    vectors.
    """
    if seeds is None:
        v0 = np.full(h.dim, 1.0 / math.sqrt(h.dim))
    else:
        v0 = np.sum(seeds, axis=1) + 1e-3 / math.sqrt(h.dim)
    diagonal = not np.any(h.bands[1:])
    vals_out, vecs_out = [], []
    for group in _cluster_targets(targets):
        sigma = float(np.mean(group)) + 1.1e-4
        size = min(4 + 3 * len(group) if k is None else k, h.dim - 1)
        if diagonal:
            idx = np.argsort(np.abs(h.bands[0] - sigma), kind="stable")[:size]
            vals = h.bands[0][idx]
            vecs = np.zeros((h.dim, size))
            vecs[idx, np.arange(size)] = 1.0
        else:
            vals, vecs = _lanczos(h, sigma, size, v0, group)
        vals_out.append(vals)
        vecs_out.append(vecs)
    vals = np.concatenate(vals_out)
    vecs = np.concatenate(vecs_out, axis=1)
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    keep = [0]
    for i in range(1, vals.size):
        if vals[i] - vals[keep[-1]] < 1e-6 and abs(vecs[:, i] @ vecs[:, keep[-1]]) > 0.5:
            continue
        keep.append(i)
    return vals[keep], vecs[:, keep]


def eigen_near(h: FockWindowHamiltonian, target: float, count: int):
    """The ``count`` eigenpairs nearest ``target`` (energies measured from n0).

    ``count`` may be 1..dim-1, the range shift-invert Lanczos can deliver.
    Residuals are verified against 1e-9 of the window norm and the vectors
    against 1e-10 orthonormality before returning.
    """
    if count < 1 or count >= h.dim:
        raise ValueError(f"count must be within 1..{h.dim - 1}")
    # four spare pairs, so that the 1.1e-4 offset of sigma from the target
    # cannot push one of the count nearest the target out of the solve
    vals, vecs = _shift_invert_near(h, [target], k=count + 4)
    order = np.argsort(np.abs(vals - target), kind="stable")[:count]
    order = order[np.argsort(vals[order], kind="stable")]
    vals, vecs = vals[order], vecs[:, order]
    resid = h.matvec(vecs) - vals * vecs
    if np.max(np.linalg.norm(resid, axis=0)) > 1e-9 * h.norm_estimate():
        raise ConvergenceError("eigenpair residual above tolerance")
    gram = vecs.T @ vecs - np.eye(count)
    if np.max(np.abs(gram)) > 1e-10:
        raise ConvergenceError("eigenvectors lost orthonormality")
    return vals, vecs


@dataclass(eq=False)
class TrackedLevels:
    """Eigenvalue curves continued along a coupling sweep by vector overlap.

    Every recorded point keeps its eigenvectors (``step_vectors``) and the
    truncation bound of each tracked eigenpair there (``bounds``).
    """

    which: list
    gs: np.ndarray              # (steps, 2) sweep points in (g1, g2)
    energies: np.ndarray        # (steps, L) eigenvalues measured from n0
    overlaps: np.ndarray        # (steps, L); first row is 1
    relabelings: list           # (step index, note) where the energy order changed
    step_vectors: np.ndarray    # (steps, dim, L) eigenvectors at every point
    bounds: np.ndarray          # (steps, L) truncation_bound of every eigenpair at every point


def _assign(prev_vecs, vals, vecs):
    """Best permutation of candidates onto tracked states.

    Returns (values, vectors, quality, runner_up) for the tracked columns;
    the runner-up is each column's best overlap among the unpicked candidates
    (0 when there is none).
    """
    overlap = np.abs(vecs.T @ prev_vecs)      # (cand, L)
    nstate = prev_vecs.shape[1]
    if overlap.shape[0] < nstate:
        raise TrackingError("fewer candidates than tracked states")
    rows, cols = linear_sum_assignment(-overlap)
    pick = np.empty(nstate, dtype=int)
    pick[cols] = rows
    quality = overlap[pick, np.arange(nstate)]
    others = overlap.copy()
    others[pick, np.arange(nstate)] = 0.0
    return vals[pick], vecs[:, pick], quality, others.max(axis=0)


def track_levels(template: ModelParams, start, end, steps: int, n0: int,
                 half_width: int, which, *, start_vectors=None) -> TrackedLevels:
    """Continue labelled eigenstates along a straight line in (g1, g2).

    ``which`` lists distinct (level, quantum-number) labels; all must live in
    one parity sector (``_sector_of``), the one the sweep runs in.  The sweep
    must start at zero coupling (where the labels are exact basis states) unless
    ``start_vectors`` supplies the starting eigenvectors explicitly.
    ``steps`` counts the recorded points, ends included (1 only if end equals
    start).  Steps are bisected automatically whenever the consecutive overlap
    of any tracked state drops below 0.5, at most 14 halvings deep; an
    assignment whose best and runner-up overlaps agree within 1e-3 raises
    TrackingError, as does a solve with fewer candidates than tracked states
    (no shorter step adds any).  Energies are measured from n0.
    """
    which = [(int(j), int(nq)) for j, nq in which]
    for i, label in enumerate(which):
        if label in which[:i]:
            raise ValueError(f"label {label} appears twice in which")
    parity = _sector_of(which)

    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    if steps < 1 or (steps == 1 and np.any(end != start)):
        raise ValueError(f"a sweep from {start.tolist()} to {end.tolist()} "
                         f"cannot record {steps} points")
    h0 = build_hamiltonian(template.with_couplings(*start), n0, half_width, parity)
    idx = [h0.index_of(j, nq) for j, nq in which]
    guess = h0.bands[0][idx]
    if start_vectors is None:
        if np.any(start != 0.0):
            raise ValueError("sweeps must start at (0, 0) unless start_vectors is given")
        vecs = np.zeros((h0.dim, len(which)))
        for col, i in enumerate(idx):
            vecs[i, col] = 1.0
        vals = guess
    else:
        anchors = np.asarray(start_vectors, dtype=float)
        if anchors.shape != (h0.dim, len(which)):
            raise ValueError("start_vectors must be (dim, len(which))")
        # a uniform start targeted at the zero-coupling energies ``guess``; the
        # anchors pick their states among those found, which misses a level the
        # coupling has moved far from ``guess`` (126 rows of the seed-0 map
        # fail so: the FOUND on track_levels in CHANGES.md, ROADMAP item 1)
        cand_vals, cand_vecs = _shift_invert_near(h0, guess)
        vals, vecs, quality, _ = _assign(anchors, cand_vals, cand_vecs)
        if np.any(quality < OVERLAP_FLOOR):
            raise TrackingError("start_vectors do not identify eigenstates at the sweep start")
    ts = np.linspace(0.0, 1.0, steps)
    energies = [vals]
    overlaps = [np.ones(len(which))]
    bounds = [h0.truncation_bound(vals, vecs)]
    relabel = []

    def advance(t_from, t_to, vals, vecs, depth):
        g = start + t_to * (end - start)
        h = build_hamiltonian(template.with_couplings(*g), n0, half_width, parity)
        cand_vals, cand_vecs = _shift_invert_near(h, vals, vecs)
        new_vals, new_vecs, quality, runner = _assign(vecs, cand_vals, cand_vecs)
        if np.all(quality >= OVERLAP_FLOOR):
            close = np.abs(quality - runner) < AMBIGUITY
            if np.any(close):
                raise TrackingError(f"ambiguous level identity at g={tuple(g.tolist())}: "
                                    f"overlaps within {AMBIGUITY}")
            return new_vals, new_vecs, h
        if depth >= _MAX_REFINES:
            raise TrackingError(f"overlap tracking failed near g={tuple(g.tolist())}")
        t_mid = 0.5 * (t_from + t_to)
        vals, vecs, _ = advance(t_from, t_mid, vals, vecs, depth + 1)
        return advance(t_mid, t_to, vals, vecs, depth + 1)

    kept = [vecs]
    for s in range(1, steps):
        new_vals, new_vecs, h = advance(ts[s - 1], ts[s], vals, vecs, 0)
        prev_order = np.argsort(vals, kind="stable")
        new_order = np.argsort(new_vals, kind="stable")
        if not np.array_equal(prev_order, new_order):
            relabel.append((s, "energy order changed"))
        quality = np.abs(np.einsum("ij,ij->j", new_vecs, vecs))
        vals, vecs = new_vals, new_vecs
        energies.append(vals)
        overlaps.append(quality)
        # from the sector advance() assembled at this recorded point
        bounds.append(h.truncation_bound(vals, vecs))
        kept.append(vecs)

    gs = start + ts[:, None] * (end - start)
    return TrackedLevels(which, gs, np.array(energies), np.array(overlaps), relabel,
                         np.array(kept), np.array(bounds))


#: The entry points that check a truncation bound try the windows n0 +- 64,
#: 128, 256, ... up to the caller's half_width.  Against W = 400, W = 64
#: passed the seed-0, 1 and 7 splittings records, criterion 7's line
#: (delta_n 13-27), its two strong-coupling records, criterion 8 and
#: criterion 3's 25 points with the same minima counts, moving the lowest
#: gaps by at most 1.1e-12 relative, other minima by 1.8e-11 and the dressed
#: levels by 4e-15; the map's far corner (1.0, 1.25) fails at 64 and 80 and
#: passes at 96.  A seed-0 splittings pass (delta_n 13, 15) took 0.47-0.58 s
#: at W = 64 against 1.00-1.06 s at W = 400 on a shared 2-core host.  The
#: seed-0 resonance map (g1 <= 1.0, g2 <= 1.25) fails at 64 on its g2 column
#: alone (bound 1.5e-3) and passes at 128 at every point (worst 5.6e-14),
#: taking about half the time of a pass at W = 400.
_FIRST_WINDOW = 64
_WINDOW_GROWTH = 2


def _on_growing_windows(solve, n0, cap, which):
    """``solve(w)`` on the narrowest window n0 +- w that it accepts, w <= ``cap``.

    The windows tried are 64, 128, 256, ... below ``cap`` that hold every
    (level, quantum-number) label of ``which``, then ``cap`` itself.  Below
    the cap a TriladderError (a truncation bound missed, tracking lost) moves
    on to the next window; at the cap it propagates, so a call fails exactly
    as one on the cap window alone would.  A cap that ``_check_window``
    refuses, one too narrow for a label of ``which`` included, raises
    ValueError before any solve.
    """
    _check_window(n0, cap, which)
    reach = max(abs(nq - n0) for _, nq in which)
    width = _FIRST_WINDOW
    while width < cap:
        if width >= reach:
            try:
                return solve(width)
            except TriladderError:
                pass
        width *= _WINDOW_GROWTH
    return solve(cap)


#: every level a bound-checked sweep returns lies within this of an
#: eigenvalue of the untruncated Hamiltonian
_LEVEL_BOUND = 1e-8


def _require_bound(tr, half_width, what, points=slice(None)):
    """ConvergenceError unless the eigenpairs of ``tr`` at ``points`` meet _LEVEL_BOUND.

    ``points`` slices the recorded points of the sweep; the message names the
    window and the point with the largest bound.
    """
    bounds = np.max(tr.bounds[points], axis=1)
    worst = int(np.argmax(bounds))
    if bounds[worst] > _LEVEL_BOUND:
        g1, g2 = tr.gs[points][worst]
        raise ConvergenceError(
            f"the window n0 +- {half_width} leaves {what} at "
            f"(g1, g2) = ({g1:g}, {g2:g}) uncertain by up to {bounds[worst]:.2e}")


def exact_dressed_levels(template: ModelParams, g1: float, g2: float,
                         half_width: int) -> np.ndarray:
    """Dressed energies of the three levels from the exact windowed spectrum.

    Tracks the states labelled (1, .), (2, .), (3, .) next to the window
    centre n0 = ``template.n0`` (``central_quantum``) from zero coupling to
    (g1, g2) in their parity sector and subtracts each state's ladder rung
    n - n0.  The truncation bound of every tracked eigenpair must be within
    1e-8, so each value lies within 1e-8 of an eigenvalue of the untruncated
    Hamiltonian.  The windows n0 +- 64, 128, ... are tried in turn up to the
    cap ``half_width`` (``_on_growing_windows``); the first that meets the
    bound gives the result, and ConvergenceError names the cap when none does.

    The sweep keeps a fixed step count that grows with the coupling, unlike
    the one-interval approach of ``anticrossing_gap``: the three states pass
    many multiphoton anticrossings on the way, and from a single interval
    the overlap bisection can land on another adiabatic branch (on the 25
    points of acceptance criterion 3 one interval left the worst level 1.99
    quanta from the orbit average, against 0.057 with these steps).
    """
    n0 = template.n0
    nq = [central_quantum(j, n0) for j in (1, 2, 3)]
    which = list(zip((1, 2, 3), nq))
    levels = _on_growing_windows(
        lambda width: _dressed_levels_on(template, g1, g2, width, which),
        n0, half_width, which)
    return levels - np.array([q - n0 for q in nq], dtype=float)


def _dressed_levels_on(template, g1, g2, half_width, which):
    """``exact_dressed_levels`` on one window, before the rungs are subtracted."""
    steps = max(12, int(18 * math.hypot(g1, g2)) + 2)
    tr = track_levels(template, (0.0, 0.0), (g1, g2), steps, template.n0, half_width, which)
    _require_bound(tr, half_width, "the dressed levels", slice(-1, None))
    return tr.energies[-1]


# ---------------------------------------------------------------------------
# anticrossing gaps


@dataclass(eq=False)
class GapScan:
    """Result of minimizing the gap between two tracked states along a line."""

    transition: tuple
    delta_n: int
    g_contour: tuple            # (g1, g2) where the dressed resonance crosses the line
    g_star: tuple               # (g1, g2) at the lowest minimum that is the pair's own
    gap: float                  # |E_a - E_b| of the pair there
    minima: list                # [(g1, g2, distance)] for every local minimum, own or foreign
    ts: np.ndarray              # scan parameter values evaluated, ascending
    gaps: np.ndarray            # distance from the pair to its nearest other level at each
    half_width: int             # the window n0 +- half_width the gap was accepted on


def _pair_rule(vals, vecs, anchors):
    """Candidate indices, in energy order, of the two overlapping most with the anchor pair."""
    score = np.sum((vecs.T @ anchors) ** 2, axis=1)
    if score.size < 2:
        raise TrackingError("pair tracking lost both states")
    top = np.argsort(score, kind="stable")[-2:]
    return top[np.argsort(vals[top], kind="stable")]


def _nearest_other(vals, pair):
    """Distance from the pair to its nearest other candidate, the partner counted.

    Returns it with the two candidates at that distance: the pair itself where
    no candidate lies nearer to either member than its partner (the point is
    the pair's own), else a member and that nearer candidate.
    """
    gap = vals[pair[1]] - vals[pair[0]]
    dist = np.abs(vals[:, None] - vals[pair])
    dist[pair] = np.inf
    other, member = np.unravel_index(np.argmin(dist), dist.shape)
    if dist[other, member] < gap:
        return dist[other, member], np.array([pair[member], other])
    return gap, pair


#: the gap scan's grid: this many evenly spaced points across +-_SCAN_VICINITY
#: (relative) of the predicted resonance, first solved at every
#: _COARSE_STRIDE-th point
_SCAN_POINTS = 101
_SCAN_VICINITY = 0.08
_COARSE_STRIDE = 4

#: points of the approach sweep from zero coupling to the scan vicinity; two
#: make it one interval, which track_levels bisects only where states change
_APPROACH_STEPS = 2


class _Solved(NamedTuple):
    """One solve of the gap search at a point of its line."""

    h: FockWindowHamiltonian    # the sector assembled there
    vals: np.ndarray            # candidate values, ascending
    vecs: np.ndarray            # candidate vectors
    pair: np.ndarray            # candidate indices of the tracked pair (``_pair_rule``)
    distance: float             # from the pair to its nearest other candidate
    ends: np.ndarray            # the two candidates at that distance (``_nearest_other``)

    @property
    def tracked(self):
        """The pair's values and vectors, which seed the next solve."""
        return self.vals[self.pair], self.vecs[:, self.pair]


def _crossing_ahead(point, t, dt):
    """Whether a candidate's first-order prediction crosses a tracked level within dt.

    ``point`` is the solve at scan parameter t; a negative ``dt`` predicts backwards.
    """
    # from zero coupling H(t) = D + t C, and the diagonal h.bands[0] is D
    # at every t; by Hellmann-Feynman dE/dt = v^T C v = (E - v^T D v) / t
    slopes = (point.vals - point.h.bands[0] @ point.vecs ** 2) / t
    now = point.vals - point.vals[point.pair][:, None]
    later = now + (slopes - slopes[point.pair][:, None]) * dt
    return bool(np.any(now * later < 0.0))


def anticrossing_gap(template: ModelParams, end, delta_n: int, transition,
                     half_width: int) -> GapScan:
    """Locate and refine the avoided-crossing gap of one resonance.

    The scan runs on the line from zero coupling to the (g1, g2) point
    ``end``, in a window n0 +- W around n0 = ``template.n0``.  The resonance
    location is first estimated from the dressed (orbit-averaged) transition
    energy (reported as ``g_contour``), and the
    two resonant states, (j, n) with n = ``central_quantum(j, n0)`` and
    (k, n - delta_n), are tracked out to the vicinity in their parity sector
    (ValueError before any solve when ``_exchange`` refuses them) as one
    sweep interval, which ``track_levels`` halves only where a state's
    overlap with its previous vector falls below 0.5.  There the pair is
    continued as a two-state subspace across a fixed grid of 101 evenly
    spaced points, +-8% of the predicted resonance, scanned coarse to fine:
    every fourth point and the last are solved first, and the rest only inside
    coarse intervals that can hold a minimum of the pair's gap (they touch a
    coarse local minimum, ends included, or the first-order prediction of a
    candidate level crosses a tracked one there, from either end), widened by
    one coarse interval on each side.

    Every solved point records the distance from the pair to its nearest
    other level, the partner counted: the pair's gap where no third level
    comes nearer to either of the two, less where one does.  Each local
    minimum of that profile is polished by a bounded scalar minimization of
    its square.  It asks for 1e-10 in (g1, g2), but scipy's bounded Brent
    steps no finer than sqrt(eps)*t + xatol/3, so the minimum is resolved to
    about 1.5e-8 of t (5e-9 at t = 0.35).  The square is quadratic at the
    bottom of an anticrossing (the two-state hyperbola) and of an exact
    crossing alike, so its parabolic steps converge on either.  A minimum is
    the pair's own when, at it, no level lies nearer to either member than
    its partner; the reported ``gap`` and ``g_star`` are the lowest own
    minimum, and ``minima`` holds every minimum, own or foreign.

    At the reported minimum (the lowest of all when none is own) the
    truncation bounds of the two eigenpairs whose distance it is must sum to
    at most 1 percent of max(gap, 1e-9).  The whole search runs on
    W = 64, 128, ... in turn up to the cap ``half_width``
    (``_on_growing_windows``); the first window that passes this bound is
    accepted and recorded as ``half_width`` of the result, and the cap's error
    propagates when none does.  When no minimum is own, TrackingError names
    the accepted window: the pair is not one anticrossing, on any window.
    ``ts`` and ``gaps`` of the result hold the solved points and the profile
    there.
    """
    j, k = _exchange(transition, delta_n)
    end = np.asarray(end, dtype=float)
    nb = central_quantum(j, template.n0)
    which = [(j, nb), (k, nb - delta_n)]
    t_star = _line_resonance(template, end, (j, k), delta_n)
    scan, own = _on_growing_windows(
        lambda width: _gap_on(template, end, which, t_star, width),
        template.n0, half_width, which)
    if not own:
        (g1, g2), best = scan.g_star, scan.gap
        raise TrackingError(f"on the window n0 +- {scan.half_width}, a third level lies nearer "
                            f"to the pair than its partner at every gap minimum (the lowest "
                            f"{best:.3e} at (g1, g2) = ({g1:g}, {g2:g})): not one anticrossing")
    return scan


def _gap_on(template, end, which, t_star, half_width):
    """``anticrossing_gap`` on one window: its GapScan, and whether the gap is the pair's own."""
    n0 = template.n0
    parity = _sector_of(which)
    (j, nj), (k, nk) = which
    t_lo = max(t_star * (1.0 - _SCAN_VICINITY), 1e-9)
    t_hi = min(t_star * (1.0 + _SCAN_VICINITY), 1.0)
    approach = track_levels(template, (0.0, 0.0), tuple(t_lo * end),
                            _APPROACH_STEPS, n0, half_width, which)

    def solve(t, vals, vecs):
        """The ``_Solved`` record at t, seeded by the pair's values and vectors."""
        h = build_hamiltonian(template.with_couplings(*(t * end)), n0, half_width, parity)
        cand_vals, cand_vecs = _shift_invert_near(h, vals, vecs)
        pair = _pair_rule(cand_vals, cand_vecs, vecs)
        return _Solved(h, cand_vals, cand_vecs, pair, *_nearest_other(cand_vals, pair))

    grid = np.linspace(t_lo, t_hi, _SCAN_POINTS)
    scanned = {}            # grid index -> solve() there

    def scan(indices, vals, vecs):
        for i in indices:
            scanned[i] = solve(grid[i], vals, vecs)
            vals, vecs = scanned[i].tracked

    coarse = [*range(0, _SCAN_POINTS - 1, _COARSE_STRIDE), _SCAN_POINTS - 1]
    scan(coarse, approach.energies[-1], approach.step_vectors[-1])

    # coarse interval s runs from coarse[s] to coarse[s + 1]; it can hold a gap
    # minimum when it touches a coarse local minimum (ends included) or when a
    # candidate's first-order prediction crosses a tracked level inside it
    cg = np.diff([scanned[i].vals[scanned[i].pair] for i in coarse])[:, 0]     # pair gaps
    low = np.ones(cg.size, dtype=bool)
    low[1:] &= cg[1:] <= cg[:-1]
    low[:-1] &= cg[:-1] <= cg[1:]
    can_hold = low[:-1] | low[1:]
    for s, (a, b) in enumerate(zip(coarse[:-1], coarse[1:])):
        dt = grid[b] - grid[a]
        can_hold[s] |= (_crossing_ahead(scanned[a], grid[a], dt)
                        or _crossing_ahead(scanned[b], grid[b], -dt))
    # fill those in, with one coarse interval of margin on each side
    fill = can_hold.copy()
    fill[1:] |= can_hold[:-1]
    fill[:-1] |= can_hold[1:]
    for s in np.nonzero(fill)[0]:
        a = coarse[s]
        scan(range(a + 1, coarse[s + 1]), *scanned[a].tracked)

    order = sorted(scanned)
    ts, points = grid[order], [scanned[i] for i in order]
    gaps = np.array([p.distance for p in points])

    interior = np.nonzero((gaps[1:-1] <= gaps[:-2]) & (gaps[1:-1] <= gaps[2:]))[0] + 1
    if interior.size == 0:
        lo, hi = t_lo * end, t_hi * end
        raise ConvergenceError(f"no interior gap minimum between (g1, g2) = "
                               f"({lo[0]:g}, {lo[1]:g}) and ({hi[0]:g}, {hi[1]:g})")
    # collapse plateaus of equal neighbouring values
    keep = [interior[0]]
    for i in interior[1:]:
        if i != keep[-1] + 1:
            keep.append(i)

    def distance_at(t):
        # seeded by the scanned point nearest t, the lower one on a tie
        polished[t] = solve(t, *points[np.argmin(np.abs(ts - t))].tracked)
        return polished[t].distance

    minima, at_minima = [], []
    span_g = np.linalg.norm(end)
    for i in keep:
        a, b = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
        polished = {}       # distance_at's solve() at every t the minimizer tries
        res = minimize_scalar(lambda t: distance_at(t) ** 2, bounds=(a, b), method="bounded",
                              options={"xatol": 1e-10 / span_g})
        if not res.success:
            raise ConvergenceError(
                f"gap minimum near g={tuple((res.x * end).tolist())} not refined: {res.message}")
        g_min = tuple(res.x * end)
        minima.append((g_min[0], g_min[1], math.sqrt(res.fun)))
        at_minima.append(polished[res.x])      # res.x is one of those t

    own = [m for m, p in enumerate(at_minima) if np.array_equal(p.ends, p.pair)]
    # the lowest own minimum is the gap; with none, the lowest of all decides
    # whether this window is wide enough to refuse the pair on
    lowest = min(own or range(len(minima)), key=lambda m: minima[m][2])
    g1s, g2s, best = minima[lowest]
    p = at_minima[lowest]
    bound = float(np.sum(p.h.truncation_bound(p.vals[p.ends], p.vecs[:, p.ends])))
    # gaps below 1e-9 are zero to solver tolerance; no relative check there
    slack = 0.01 * max(best, 1e-9)
    if bound > slack:
        raise ConvergenceError(
            f"the window n0 +- {half_width} leaves the gap {best:.3e} uncertain by {bound:.3e}")

    minima.sort(key=lambda m: (m[0], m[1]))
    return GapScan((j, k), int(nj - nk), tuple(t_star * end), (g1s, g2s), float(best), minima,
                   ts, gaps, half_width), bool(own)


# ---------------------------------------------------------------------------
# resonance-sharpness maps


#: inverse resonance mismatch is reported no larger than this
SHARPNESS_CAP = 1e6


def _sweep_grids(g1_grid, g2_grid):
    """The row and seeding-column grids of a sharpness map, from zero coupling.

    Zero coupling is put in front of a grid that does not start there.  Rows
    and the seeding column are swept as straight lines with uniform steps, so
    the recorded points only match the requested grids when these are uniform
    once the zero-coupling anchor is counted; ValueError otherwise.
    """
    grids = []
    for name, grid in (("g1", g1_grid), ("g2", g2_grid)):
        grid = np.asarray(grid, dtype=float)
        if grid[0] != 0.0:
            grid = np.concatenate([[0.0], grid])
        if grid.size > 1 and not np.allclose(np.diff(grid), grid[1] - grid[0]):
            raise ValueError(f"{name} grid must be uniformly spaced from zero coupling")
        grids.append(grid)
    return tuple(grids)


def resonance_sharpness_map(template: ModelParams, transition, g1_grid, g2_grid,
                            half_width: int):
    """Inverse distance of the exact dressed transition to the nearest resonant rung.

    Returns a record array with fields g1, g2, diff (dressed transition
    energy), delta_n (nearest quantum count ``_exchange`` admits), sharpness
    (capped inverse mismatch) and ok (False, with NaN values, where tracking failed).

    The exact dressed energies come from overlap-tracked windowed eigenvalues
    of the states next to n0 = ``template.n0`` (``central_quantum``): one
    sweep up the g2 axis seeds the start vectors of every constant-g2 row.
    The truncation bound of every eigenpair recorded on that column and on
    every tracked row must be within 1e-8, as in ``exact_dressed_levels``.
    One window serves the whole map: n0 +- 64, 128, ... are tried in turn up
    to the cap ``half_width`` (``_on_growing_windows``), the first that meets
    the bound gives the map, and ConvergenceError names the cap when none
    does.  A row whose tracking fails is an ok=False row on that window and
    does not move the map to a wider one.
    """
    j, k = _check_transition(transition)
    n0 = template.n0
    which = [(lvl, central_quantum(lvl, n0)) for lvl in (j, k)]
    return _on_growing_windows(
        lambda width: _map_on(template, which, g1_grid, g2_grid, width),
        n0, half_width, which)


def _map_on(template, which, g1_grid, g2_grid, half_width):
    """``resonance_sharpness_map`` on one window, for the labels ``which``."""
    (j, nj), (k, nk) = which
    g2_grid = np.asarray(g2_grid, dtype=float)
    drop_first = np.asarray(g1_grid, dtype=float)[0] != 0.0
    seed_start = g2_grid[0] == 0.0
    g1_grid, col_g2 = _sweep_grids(g1_grid, g2_grid)
    n0 = template.n0
    column = track_levels(template, (0.0, 0.0), (0.0, col_g2[-1]),
                          len(col_g2), n0, half_width, which)
    _require_bound(column, half_width, "the map's g2 column")

    rows = []
    for row_idx, g2 in enumerate(g2_grid):
        col_idx = row_idx if seed_start else row_idx + 1
        try:
            tr = track_levels(template, (0.0, g2), (g1_grid[-1], g2), len(g1_grid),
                              n0, half_width, which,
                              start_vectors=column.step_vectors[col_idx])
            diffs = (tr.energies[:, 1] - (nk - n0)) - (tr.energies[:, 0] - (nj - n0))
        except TrackingError:
            diffs = np.full(len(g1_grid), np.nan)
        else:
            _require_bound(tr, half_width, "the map's levels")
        for col, g1 in enumerate(g1_grid):
            if drop_first and col == 0:
                continue
            d = diffs[col]
            if np.isnan(d):
                rows.append((g1, g2, np.nan, -1, np.nan, False))
                continue
            best = _nearest_exchange((j, k), d)
            mismatch = abs(d - best)
            sharp = SHARPNESS_CAP if mismatch <= 1.0 / SHARPNESS_CAP else 1.0 / mismatch
            rows.append((g1, g2, d, best, sharp, True))
    return np.array(rows, dtype=[("g1", float), ("g2", float), ("diff", float),
                                 ("delta_n", int), ("sharpness", float), ("ok", bool)])
