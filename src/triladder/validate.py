"""Desk-scale invariant suite behind the ``validate`` command.

Each check is a small self-contained computation returning pass/fail plus
timing.  The optional ``fault`` argument deliberately corrupts one quantity
inside the named check so the reporting path itself can be exercised.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from . import coupling, fock, trilevel
from .trilevel import ModelParams


@dataclass
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str


def _rng():
    return np.random.default_rng(20240211)


def _random_params(rng, n0=100):
    e1 = rng.uniform(-5.0, 5.0)
    e2 = e1 + rng.uniform(0.5, 15.0)
    e3 = e2 + rng.uniform(0.5, 15.0)
    return ModelParams(e1, e2, e3, rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.5), n0)


def check_coupling_derivative(fault=None):
    """Closed-form coupling matrix matches a central difference of the basis to 1e-6."""
    rng = _rng()
    worst = 0.0
    for _ in range(40):
        p = _random_params(rng)
        y = rng.uniform(-3.0, 3.0)
        h = 1e-5 * max(1.0, abs(y))
        try:
            g = coupling.coupling_matrix(p, y)
            _, base = trilevel._eigensystem(p, [y])
            _, plus = trilevel._eigensystem(p, [y + h], reference=base)
            _, minus = trilevel._eigensystem(p, [y - h], reference=base)
        except trilevel.DegenerateLevelsError:
            continue
        if fault == "derivative":
            g = g + 1e-3
        diff = base[0].T @ (plus[0] - minus[0]) / (2.0 * h)
        size = np.max(np.abs(g))
        if size == 0.0:
            continue
        worst = max(worst, np.max(np.abs(g - diff)) / size)
    return worst <= 1e-6, f"worst closed-form/difference disagreement {worst:.2e} of max|G|"


def check_parity_selection(fault=None):
    """Derivative-coupling elements vanish for parity-forbidden quantum changes."""
    n = 60
    p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.4, 0.3, n)
    worst = 0.0
    for (j, k, dm) in ((1, 2, 2), (1, 2, 4), (2, 3, 2), (1, 3, 1), (1, 3, 3)):
        elem = coupling.v_matrix_element(p, j, k, n, n - dm, "hermite-quadrature")
        allowed = coupling.v_matrix_element(p, j, k, n, n - dm - 1, "hermite-quadrature")
        if fault == "parity":
            elem = allowed
        scale = max(abs(allowed), 1.0)
        worst = max(worst, abs(elem) / scale)
    return worst <= 1e-10, f"worst forbidden/allowed ratio {worst:.2e}"


def check_trace_preservation(fault=None):
    """Sum of the three adiabatic levels is coordinate independent."""
    rng = _rng()
    worst = 0.0
    for _ in range(200):
        p = _random_params(rng)
        y = rng.uniform(-6.0, 6.0, size=17)
        levels = trilevel.eigenvalues_at(p, y)
        total = p.e1 + p.e2 + p.e3
        if fault == "trace":
            total += 1e-6
        worst = max(worst, np.max(np.abs(levels.sum(axis=-1) - total))
                    / max(1.0, abs(total)))
    return worst <= 1e-10, f"worst relative trace drift {worst:.2e}"


def check_even_symmetry(fault=None):
    """Adiabatic levels are even functions of the oscillator coordinate."""
    rng = _rng()
    worst = 0.0
    for _ in range(200):
        p = _random_params(rng)
        y = rng.uniform(0.0, 6.0, size=17)
        plus = trilevel.eigenvalues_at(p, y)
        minus = trilevel.eigenvalues_at(p, -y)
        if fault == "even":
            minus = minus + 1e-9
        worst = max(worst, np.max(np.abs(plus - minus)))
    return worst <= 1e-12, f"worst even-symmetry violation {worst:.2e}"


def check_parity_blocks(fault=None):
    """The full product-basis Hamiltonian decouples into two parity blocks."""
    p = ModelParams(0.0, 11.0, 24.0, 0.31, 0.17, 20)
    nmax = 40
    size = nmax + 1
    ladder = np.diag(np.sqrt(np.arange(1.0, size)), 1)
    x = ladder + ladder.T
    pair12 = np.zeros((3, 3))
    pair12[0, 1] = pair12[1, 0] = 1.0
    pair23 = np.zeros((3, 3))
    pair23[1, 2] = pair23[2, 1] = 1.0
    h = (np.kron(np.diag([p.e1, p.e2, p.e3]), np.eye(size))
         + np.kron(np.eye(3), np.diag(np.arange(size, dtype=float)))
         + p.u * np.kron(pair12, x) + p.v * np.kron(pair23, x))
    if fault == "blocks":
        h[0, 1] += 1e-3
    level = np.repeat(np.arange(1, 4), size)
    quanta = np.tile(np.arange(size), 3)
    even = (level + quanta) % 2 == 0
    cross = max(np.abs(h[np.ix_(even, ~even)]).max(),
                np.abs(h[np.ix_(~even, even)]).max())
    return cross == 0.0, f"largest cross-parity entry {cross:.2e}"


def check_gauge_shift(fault=None):
    """Shifting all bare energies by c shifts every eigenvalue by exactly c."""
    import scipy.linalg
    shift = 7.3
    p = ModelParams(0.0, 11.0, 24.0, 0.4, 0.3, 60)
    q = ModelParams(shift, 11.0 + shift, 24.0 + shift, 0.4, 0.3, 60)
    worst = 0.0
    for parity in ("even", "odd"):
        hp = fock.build_hamiltonian(p, 60, 40, parity)
        hq = fock.build_hamiltonian(q, 60, 40, parity)
        vp = scipy.linalg.eig_banded(hp.bands, lower=True, eigvals_only=True)
        vq = scipy.linalg.eig_banded(hq.bands, lower=True, eigvals_only=True)
        if fault == "gauge":
            vq = vq + 1e-6
        scale = np.maximum(1.0, np.abs(vp))
        worst = max(worst, np.max(np.abs(vq - vp - shift) / scale))
    return worst <= 1e-10, f"worst relative gauge violation {worst:.2e}"


def check_determinism(fault=None):
    """Identical configuration produces byte-identical CSV output."""
    from . import cli
    cfg = io.StringIO(
        "[model]\ne1 = 0\ne2 = 11\ne3 = 24\ng1 = 0.45\ng2 = 0.3\nn0 = 100000000\n"
        "[run]\ny_min = -3\ny_max = 3\ny_points = 101\n")
    first = cli.render_levels(cli.load_config(cfg))
    cfg.seek(0)
    second = cli.render_levels(cli.load_config(cfg))
    if fault == "determinism":
        second = second + "# extra\n"
    return first == second, f"{len(first)} bytes compared"


ALL_CHECKS = (
    ("coupling-derivative", check_coupling_derivative),
    ("parity-selection", check_parity_selection),
    ("trace-preservation", check_trace_preservation),
    ("even-symmetry", check_even_symmetry),
    ("parity-blocks", check_parity_blocks),
    ("gauge-shift", check_gauge_shift),
    ("determinism", check_determinism),
)


def run_all(fault: str = None) -> list:
    """Run every invariant check, returning results with timings."""
    results = []
    for name, func in ALL_CHECKS:
        t0 = time.perf_counter()
        try:
            passed, detail = func(fault=fault)
        except Exception as err:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(err).__name__}: {err}"
        results.append(CheckResult(name, bool(passed), time.perf_counter() - t0, detail))
    return results
