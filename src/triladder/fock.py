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
vectors do not), locates anticrossing gap minima by a bounded scalar
minimization of gap^2, and rasterizes resonance-sharpness maps from the
tracked exact spectrum.
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

from .dressed import _check_odd, _check_transition, _line_resonance
from .errors import ConvergenceError, TrackingError
from .trilevel import ModelParams

#: resolve tracked-state identities only when the best overlap clears this
OVERLAP_FLOOR = 0.5

#: two candidate overlaps closer than this make the assignment ambiguous
AMBIGUITY = 1e-3

#: a sweep step is halved at most this many times before tracking gives up
_MAX_REFINES = 14


def _parity_bit(parity):
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return 0 if parity == "even" else 1


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
        """Matrix index of basis state (level, nq)."""
        hit = np.nonzero((self.labels[:, 0] == level) & (self.labels[:, 1] == nq))[0]
        if hit.size != 1:
            raise KeyError(f"state ({level}, {nq}) not in this window/sector")
        return int(hit[0])


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
    bit = _parity_bit(parity)
    nq = np.repeat(np.arange(n0 - half_width, n0 + half_width + 1, dtype=np.int64), 3)
    lvl = np.tile(np.arange(1, 4, dtype=np.int64), 2 * half_width + 1)
    keep = (lvl + nq) % 2 == bit
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


def sector_labels(n0, half_width, parity) -> np.ndarray:
    """(level, n) pairs of one parity sector, ordered by n then level (read-only)."""
    return _sector(int(n0), int(half_width), parity).labels


def build_hamiltonian(params: ModelParams, n0: int, half_width: int,
                      parity: str) -> FockWindowHamiltonian:
    """Assemble one parity sector of the windowed Hamiltonian.

    Diagonal entries are e_i + (n - n0); ladder couplings connect
    (1, n) <-> (2, n +- 1) with amplitude u * sqrt(max n) and
    (2, n) <-> (3, n +- 1) with amplitude v * sqrt(max n).
    """
    n0 = int(n0)
    half_width = int(half_width)
    if half_width < 8:
        raise ValueError("window half-width must be at least 8")
    if n0 - half_width < 0:
        raise ValueError(f"window underflows the vacuum: n0={n0}, W={half_width}")
    sector = _sector(n0, half_width, parity)
    bands = np.zeros((3, sector.labels.shape[0]))
    bands[0] = np.array([params.e1, params.e2, params.e3])[sector.level] + sector.shift
    for amp, (rows, cols, roots) in zip((params.u, params.v), sector.ladders):
        bands[rows, cols] = amp * roots
    return FockWindowHamiltonian(params, n0, half_width, parity, sector.labels, bands)


def _cluster_targets(targets, width=3.0):
    targets = np.sort(np.asarray(targets, dtype=float))
    groups = [[targets[0]]]
    for t in targets[1:]:
        if t - groups[-1][-1] <= width:
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


def _shift_invert_near(h, targets, v0=None, k=None):
    """Eigenpairs around each target.

    Targets within 3 of each other form a group; each group gets the ``k``
    eigenpairs nearest sigma = mean + 1.1e-4 (4 + 3 per target by default),
    from shift-invert Lanczos over a banded LU of H - sigma started at
    ``v0`` (uniform when None).  A diagonal sector (zero coupling) returns
    its basis states instead: they are exact, and degenerate multiplets must
    not be left to an iterative solver's whim.

    Duplicates from overlapping shifts are removed by eigenvalue proximity
    plus vector overlap (a genuinely tight anticrossing pair stays distinct
    because its two vectors are orthogonal).  Deterministic given the seed
    vectors.
    """
    if v0 is None:
        v0 = np.full(h.dim, 1.0 / math.sqrt(h.dim))
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
    """Eigenvalue curves continued along a coupling sweep by vector overlap."""

    which: list
    gs: np.ndarray              # (steps, 2) sweep points in (g1, g2)
    energies: np.ndarray        # (steps, L) eigenvalues measured from n0
    overlaps: np.ndarray        # (steps, L); first row is 1
    relabelings: list           # (step index, note) where the energy order changed
    vectors: np.ndarray         # (dim, L) eigenvectors at the final point
    step_vectors: np.ndarray = None   # (steps, dim, L) when recording was requested


class _SweepSolver:
    """Shared machinery: assemble-at-g, solve near previous values, assign."""

    def __init__(self, template, n0, half_width, parity):
        self.template = template
        self.n0 = int(n0)
        self.half_width = int(half_width)
        self.parity = parity

    def hamiltonian(self, g):
        params = self.template.with_couplings(g[0], g[1])
        return build_hamiltonian(params, self.n0, self.half_width, self.parity)

    def solve_near(self, g, centers, seeds=None):
        """Candidate eigenpairs at g near the tracked energies (from n0).

        ``seeds`` are the vectors the caller already holds for those states;
        their sum starts the Lanczos iteration (uniform start without them).
        A small uniform part keeps every basis state in the start: where one
        coupling vanishes H splits into blocks, and a start confined to the
        seeds' block would never see the eigenvalues of the others.
        """
        h = self.hamiltonian(g)
        v0 = None
        if seeds is not None:
            v0 = np.sum(seeds, axis=1) + 1e-3 / math.sqrt(h.dim)
        vals, vecs = _shift_invert_near(h, centers, v0)
        return vals, vecs, h

    def assign(self, prev_vecs, vals, vecs):
        """Best permutation of candidates onto tracked states.

        Returns (values, vectors, quality, runner_up) for the tracked columns.
        """
        overlap = np.abs(vecs.T @ prev_vecs)      # (cand, L)
        nstate = prev_vecs.shape[1]
        if overlap.shape[0] < nstate:
            raise TrackingError("fewer candidates than tracked states")
        rows, cols = linear_sum_assignment(-overlap)
        pick = np.empty(nstate, dtype=int)
        pick[cols] = rows
        quality = overlap[pick, np.arange(nstate)]
        runner = np.empty(nstate)
        for j in range(nstate):
            others = np.delete(overlap[:, j], pick[j])
            runner[j] = others.max() if others.size else 0.0
        return vals[pick], vecs[:, pick], quality, runner


def track_levels(template: ModelParams, start, end, steps: int, n0: int,
                 half_width: int, which, *, parity: str = None,
                 start_vectors=None, keep_vectors: bool = False) -> TrackedLevels:
    """Continue labelled eigenstates along a straight line in (g1, g2).

    ``which`` lists (level, quantum-number) labels; all must live in one
    parity sector.  The sweep must start at zero coupling (where the labels
    are exact basis states) unless ``start_vectors`` supplies the starting
    eigenvectors explicitly.  Steps are bisected automatically whenever the
    consecutive overlap of any tracked state drops below 0.5, at most 14
    halvings deep; an assignment whose best and runner-up overlaps agree
    within 1e-3 raises TrackingError.  Energies are measured from n0.
    """
    which = [(int(j), int(nq)) for j, nq in which]
    bits = {(j + nq) % 2 for j, nq in which}
    if len(bits) != 1:
        raise ValueError("tracked states must share one parity sector")
    if parity is None:
        parity = "even" if bits.pop() == 0 else "odd"
    solver = _SweepSolver(template, n0, half_width, parity)

    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    h0 = solver.hamiltonian(start)
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
        # uniform start: the targets here are zero-coupling energies, which can
        # lie far from the anchors' levels, and which states they pick up must
        # not hinge on the anchors (where a coupling vanishes, a seeded start
        # never leaves the anchors' invariant subspace)
        cand_vals, cand_vecs, _ = solver.solve_near(start, guess)
        vals, vecs, quality, _ = solver.assign(anchors, cand_vals, cand_vecs)
        if np.any(quality < OVERLAP_FLOOR):
            raise TrackingError("start_vectors do not identify eigenstates at the sweep start")
    ts = np.linspace(0.0, 1.0, steps)
    energies = [vals]
    overlaps = [np.ones(len(which))]
    relabel = []

    def advance(t_from, t_to, vals, vecs, depth):
        g = start + t_to * (end - start)
        cand_vals, cand_vecs, _ = solver.solve_near(g, vals, vecs)
        try:
            new_vals, new_vecs, quality, runner = solver.assign(vecs, cand_vals, cand_vecs)
        except TrackingError:
            quality = np.zeros(len(which))
            new_vals = new_vecs = runner = None
        if new_vals is not None and np.all(quality >= OVERLAP_FLOOR):
            close = np.abs(quality - runner) < AMBIGUITY
            if np.any(close):
                raise TrackingError(
                    f"ambiguous level identity at g={tuple(g)}: overlaps within {AMBIGUITY}")
            return new_vals, new_vecs
        if depth >= _MAX_REFINES:
            raise TrackingError(f"overlap tracking failed near g={tuple(g)}")
        t_mid = 0.5 * (t_from + t_to)
        vals, vecs = advance(t_from, t_mid, vals, vecs, depth + 1)
        return advance(t_mid, t_to, vals, vecs, depth + 1)

    kept = [vecs.copy()] if keep_vectors else None
    for s in range(1, steps):
        new_vals, new_vecs = advance(ts[s - 1], ts[s], vals, vecs, 0)
        prev_order = np.argsort(vals, kind="stable")
        new_order = np.argsort(new_vals, kind="stable")
        if not np.array_equal(prev_order, new_order):
            relabel.append((s, "energy order changed"))
        quality = np.abs(np.einsum("ij,ij->j", new_vecs, vecs))
        vals, vecs = new_vals, new_vecs
        energies.append(vals)
        overlaps.append(quality)
        if keep_vectors:
            kept.append(vecs.copy())

    gs = start + ts[:, None] * (end - start)
    return TrackedLevels(which, gs, np.array(energies), np.array(overlaps),
                         relabel, vecs,
                         np.array(kept) if keep_vectors else None)


def central_quantum(level, n0):
    """Quantum number n nearest n0 with level + n even.

    That is n0 when level + n0 is even, else n0 + 1, so the state
    (level, n) sits in the even sector; for adjacent levels j, j + 1 the
    partner (j + 1, n - delta_n) of an odd exchange sits there too.
    """
    return n0 if (level + n0) % 2 == 0 else n0 + 1


def exact_dressed_levels(template: ModelParams, g1: float, g2: float, n0: int,
                         half_width: int, *, check_window: bool = False) -> np.ndarray:
    """Dressed energies of the three levels from the exact windowed spectrum.

    Tracks the states labelled (1, .), (2, .), (3, .) near the window centre
    from zero coupling to (g1, g2) and subtracts each state's ladder rung
    n - n0.  With ``check_window`` the values are re-derived at doubled window
    width and must agree to 1e-8.
    """
    n0 = int(n0)
    nq = [central_quantum(j, n0) for j in (1, 2, 3)]
    which = list(zip((1, 2, 3), nq))
    steps = max(12, int(18 * math.hypot(g1, g2)) + 2)

    def run(width):
        tr = track_levels(template, (0.0, 0.0), (g1, g2), steps, n0, width, which)
        return tr.energies[-1] - np.array([q - n0 for q in nq], dtype=float)

    dressed = run(half_width)
    if check_window:
        wide = run(2 * half_width)
        if np.max(np.abs(wide - dressed)) > 1e-8:
            raise ConvergenceError(
                f"dressed levels moved by {np.max(np.abs(wide - dressed)):.2e} "
                "when the window width doubled")
        dressed = wide
    return dressed


# ---------------------------------------------------------------------------
# anticrossing gaps


@dataclass(eq=False)
class GapScan:
    """Result of minimizing the gap between two tracked states along a line."""

    transition: tuple
    delta_n: int
    g_contour: tuple            # (g1, g2) where the dressed resonance crosses the line
    g_star: tuple               # (g1, g2) at the global gap minimum
    gap: float                  # minimal |E_a - E_b|
    minima: list                # [(g1, g2, gap)] for every local minimum found
    ts: np.ndarray              # scan parameter values
    gaps: np.ndarray            # scanned gap values


def _pair_rule(vals, vecs, anchors):
    """The two candidates overlapping most with the anchor pair, and their gap.

    Returns the pair's values and vectors in energy order (the next anchors)
    and the distance between the two values.
    """
    score = np.sum((vecs.T @ anchors) ** 2, axis=1)
    if score.size < 2:
        raise TrackingError("pair tracking lost both states")
    top = np.argsort(score, kind="stable")[-2:]
    top = top[np.argsort(vals[top], kind="stable")]
    return vals[top], vecs[:, top], abs(vals[top[1]] - vals[top[0]])


def _nearest_rule(vals, vecs, anchor):
    """The candidate overlapping most with the single anchor, and its gap.

    Returns its value, the next anchor and the distance to the nearest other
    candidate.  The anchor only moves where the identity is unambiguous
    (overlap >= 0.9), so sitting inside a hybridization zone does not switch
    the continuation onto the partner branch.
    """
    ovl = np.abs(vecs.T @ anchor)[:, 0]
    pick = int(np.argmax(ovl))
    if ovl[pick] >= 0.9:
        anchor = vecs[:, pick:pick + 1]
    others = np.delete(vals, pick)
    gap = np.min(np.abs(others - vals[pick])) if others.size else np.inf
    return vals[pick:pick + 1], anchor, gap


_GAP_RULES = {"pair": _pair_rule, "nearest": _nearest_rule}


def anticrossing_gap(template: ModelParams, line, delta_n: int, transition,
                     n0: int, half_width: int, *, scan_points: int = 101,
                     vicinity: float = 0.08, mode: str = "pair") -> GapScan:
    """Locate and refine the avoided-crossing gap of one resonance.

    ``line`` is a pair of (g1, g2) endpoints starting at zero coupling.  The
    resonance location is first estimated from the dressed (orbit-averaged)
    transition energy (reported as ``g_contour``), the two resonant states
    are tracked out to the vicinity, the gap is scanned on ``scan_points``
    points and every local minimum is polished by a bounded scalar
    minimization of gap^2 down to a resolution of 1e-10 in (g1, g2).  gap^2
    is quadratic at the bottom of an anticrossing (the two-state hyperbola)
    and of an exact crossing alike, so its parabolic steps converge on
    either.  The reported gap must be stable to 1 percent when the window
    width doubles.

    ``mode="pair"`` continues the two-state subspace, which is the robust
    choice for an isolated anticrossing.  ``mode="nearest"`` continues only
    the first (lower-level) state and profiles its distance to whichever
    eigenvalue comes closest; use it where a third level interferes and the
    single predicted resonance splits into several.
    """
    j, k = transition
    _check_odd(delta_n)
    if mode not in _GAP_RULES:
        raise ValueError(f"unknown scan mode {mode!r}")
    rule = _GAP_RULES[mode]
    if not (math.isfinite(vicinity) and vicinity > 0):
        raise ValueError(f"vicinity must be a positive number, got {vicinity}")
    start = np.asarray(line[0], dtype=float)
    end = np.asarray(line[1], dtype=float)
    if np.any(start != 0.0):
        raise ValueError("gap scans start from zero coupling")

    n0 = int(n0)

    def g_of(t):
        return start + t * (end - start)

    t_star = _line_resonance(template, end, (j, k), delta_n, n0)

    nb = central_quantum(j, n0)
    which = [(j, nb), (k, nb - delta_n)]
    t_lo = max(t_star * (1.0 - vicinity), 1e-9)
    t_hi = min(t_star * (1.0 + vicinity), 1.0)

    approach = track_levels(template, tuple(start), tuple(g_of(t_lo)),
                            24, n0, half_width, which)
    solver = _SweepSolver(template, n0, half_width, "even")

    def measure(t, vals, vecs):
        cand_vals, cand_vecs, _ = solver.solve_near(g_of(t), vals, vecs)
        return rule(cand_vals, cand_vecs, vecs)

    ts = np.linspace(t_lo, t_hi, scan_points)
    # "nearest" follows the bra state alone
    width = 2 if mode == "pair" else 1
    vals, vecs = approach.energies[-1][:width], approach.vectors[:, :width]
    scan_vals, scan_vecs, gaps = [], [], []
    for t in ts:
        vals, vecs, gap = measure(t, vals, vecs)
        scan_vals.append(vals)
        scan_vecs.append(vecs)
        gaps.append(gap)
    gaps = np.array(gaps)

    interior = np.nonzero((gaps[1:-1] <= gaps[:-2]) & (gaps[1:-1] <= gaps[2:]))[0] + 1
    if interior.size == 0:
        raise ConvergenceError("no interior gap minimum inside the scan vicinity; widen it")
    # collapse plateaus of equal neighbouring values
    keep = [interior[0]]
    for i in interior[1:]:
        if i != keep[-1] + 1:
            keep.append(i)

    def gap_at(t):
        ref = int(np.clip(np.searchsorted(ts, t), 1, len(ts) - 1))
        near = ref if abs(ts[ref] - t) < abs(ts[ref - 1] - t) else ref - 1
        return measure(t, scan_vals[near], scan_vecs[near])[2]

    minima = []
    span_g = np.linalg.norm(end - start)
    for i in keep:
        a, b = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
        res = minimize_scalar(lambda t: gap_at(t) ** 2, bounds=(a, b), method="bounded",
                              options={"xatol": 1e-10 / span_g})
        if not res.success:
            raise ConvergenceError(
                f"gap minimum near g={tuple(g_of(res.x))} not refined: {res.message}")
        g_min = tuple(g_of(res.x))
        minima.append((g_min[0], g_min[1], math.sqrt(res.fun)))

    minima.sort(key=lambda m: m[2])
    g1s, g2s, best = minima[0]

    t_min = np.linalg.norm(np.array([g1s, g2s]) - start) / span_g
    ref = int(np.clip(np.searchsorted(ts, t_min), 1, len(ts) - 1))
    wide = _SweepSolver(template, n0, 2 * half_width, solver.parity)
    wide_h = wide.hamiltonian((g1s, g2s))
    anchors = _embed_vectors(scan_vecs[ref], solver, wide_h)
    vals, vecs, _ = wide.solve_near((g1s, g2s), scan_vals[ref], anchors)
    wide_gap = rule(vals, vecs, anchors)[2]
    # gaps below 1e-9 are zero to solver tolerance; no relative check there
    if abs(wide_gap - best) > 0.01 * max(best, 1e-9):
        raise ConvergenceError(
            f"gap changed from {best:.3e} to {wide_gap:.3e} when the window doubled")

    minima.sort(key=lambda m: (m[0], m[1]))
    return GapScan((j, k), int(delta_n), tuple(g_of(t_star)), (g1s, g2s), float(best),
                   minima, ts, gaps)


def _embed_vectors(vecs, solver, wide_h):
    """Zero-pad sector vectors from a narrow window into a wider one.

    The narrow sector is a contiguous block of the wide one (checked), so the
    vectors land at the wide index of the first narrow label.
    """
    narrow = sector_labels(solver.n0, solver.half_width, solver.parity)
    first = wide_h.index_of(*narrow[0])
    rows = slice(first, first + narrow.shape[0])
    if not np.array_equal(wide_h.labels[rows], narrow):
        raise ValueError("the narrow window is not a block of the wide one")
    out = np.zeros((wide_h.dim, vecs.shape[1]))
    out[rows] = vecs
    return out


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
                            n0: int, half_width: int):
    """Inverse distance of the exact dressed transition to the nearest odd rung.

    Returns a record array with fields g1, g2, diff (dressed transition
    energy), delta_n (nearest odd quantum count), sharpness (capped inverse
    mismatch) and ok (False where tracking failed; such points carry NaN).

    The exact dressed energies come from overlap-tracked windowed eigenvalues:
    one sweep up the g2 axis seeds the start vectors of every constant-g2 row.
    """
    j, k = _check_transition(transition)
    g2_grid = np.asarray(g2_grid, dtype=float)
    drop_first = np.asarray(g1_grid, dtype=float)[0] != 0.0
    seed_start = g2_grid[0] == 0.0
    g1_grid, col_g2 = _sweep_grids(g1_grid, g2_grid)
    n0 = int(n0)
    nq = {lvl: central_quantum(lvl, n0) for lvl in (j, k)}
    which = [(j, nq[j]), (k, nq[k])]
    column = track_levels(template, (0.0, 0.0), (0.0, col_g2[-1]),
                          len(col_g2), n0, half_width, which, keep_vectors=True)

    rows = []
    for row_idx, g2 in enumerate(g2_grid):
        col_idx = row_idx if seed_start else row_idx + 1
        try:
            tr = track_levels(template, (0.0, g2), (g1_grid[-1], g2), len(g1_grid),
                              n0, half_width, which,
                              start_vectors=column.step_vectors[col_idx])
            diffs = (tr.energies[:, 1] - (nq[k] - n0)) - (tr.energies[:, 0] - (nq[j] - n0))
            ok = np.ones(len(g1_grid), dtype=bool)
        except TrackingError:
            diffs = np.full(len(g1_grid), np.nan)
            ok = np.zeros(len(g1_grid), dtype=bool)
        for col, g1 in enumerate(g1_grid):
            if drop_first and col == 0:
                continue
            d = diffs[col]
            if np.isnan(d):
                rows.append((g1, g2, np.nan, -1, np.nan, False))
                continue
            best = max(1, 2 * int(round((d - 1.0) / 2.0)) + 1)
            mismatch = abs(d - best)
            sharp = SHARPNESS_CAP if mismatch <= 1.0 / SHARPNESS_CAP else 1.0 / mismatch
            rows.append((g1, g2, d, best, sharp, bool(ok[col])))
    return np.array(rows, dtype=[("g1", float), ("g2", float), ("diff", float),
                                 ("delta_n", int), ("sharpness", float), ("ok", bool)])
