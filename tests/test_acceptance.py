"""End-to-end acceptance checks at pinned tolerances.

Each test prints one line naming the check, its outcome and its runtime, so a
plain run doubles as a scorecard.  Tolerances are fixed here, not tuned.
"""

import math
import time

import numpy as np
import pytest

from triladder import (ModelParams, compare_splittings, contour_arc_crossing,
                       anticrossing_gap, build_hamiltonian, eigenvalues_at,
                       exact_dressed_levels, h0_level_fd, level_matrix,
                       pt_splitting, track_levels, v_matrix_element, wkb_levels)
from triladder.dressed import _transition_gap
from triladder.validate import run_all

from conftest import random_params
from test_trilevel import jacobi_eigenvalues
from test_fock import dense_full_basis, sector_eigenvalues

LADDER = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 10**8)


def report(name, started, passed=True, extra=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {name:<34} {status}  {time.time() - started:7.1f} s  {extra}")
    return passed


def test_criterion_01_cubic_against_rotation_oracle():
    t0 = time.time()
    rng = np.random.default_rng(314159)
    mats, mine = [], []
    for _ in range(10**4):
        p = random_params(rng)
        y = rng.uniform(-5.0, 5.0)
        mats.append(level_matrix(p, y))
        mine.append(eigenvalues_at(p, y))
    mine = np.asarray(mine)
    oracle = jacobi_eigenvalues(np.asarray(mats))
    worst = np.max(np.abs(oracle - mine) / np.maximum(1.0, np.abs(oracle)))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    assert report("1 cubic vs rotation oracle", t0, ok,
                  f"worst {worst:.2e}") and ok


def test_criterion_02_small_basis_exactness():
    t0 = time.time()
    p = ModelParams(0.0, 11.0, 24.0, 0.07, 0.05, 50)
    reference = np.linalg.eigvalsh(dense_full_basis(p, 100)) - 50
    windowed = np.sort(np.concatenate(
        [sector_eigenvalues(build_hamiltonian(p, 50, 50, parity))
         for parity in ("even", "odd")]))
    worst = np.max(np.abs(windowed - reference))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    assert report("2 small-basis exactness", t0, ok, f"worst {worst:.2e}") and ok


def test_criterion_03_dressed_energy_accuracy():
    t0 = time.time()

    def odd_distance(value):
        nearest = 2 * round((value - 1.0) / 2.0) + 1
        return min(abs(value - nearest), abs(value - nearest - 2),
                   abs(value - nearest + 2))

    sample = []
    for g2 in np.linspace(0.08, 1.08, 11):
        for g1 in np.linspace(0.08, 0.88, 9):
            lv = wkb_levels(LADDER.with_couplings(g1, g2))
            if odd_distance(lv[1] - lv[0]) >= 0.3 and odd_distance(lv[2] - lv[1]) >= 0.3:
                sample.append((g1, g2, lv))
            if len(sample) == 25:
                break
        if len(sample) == 25:
            break
    assert len(sample) == 25, "fewer than 25 off-resonance sample points"

    worst = 0.0
    for g1, g2, approx in sample:
        exact = exact_dressed_levels(LADDER, g1, g2, 10**8, 400, check_window=True)
        worst = max(worst, float(np.max(np.abs(exact - approx))))
    elapsed = time.time() - t0
    ok = worst <= 0.1 and elapsed < 300.0
    assert report("3 dressed-energy accuracy", t0, ok,
                  f"worst |wkb-exact| {worst:.3f}") and ok


def test_criterion_04_zero_coupling_resonance_orders():
    t0 = time.time()
    worst_radius, worst_resid = 0.0, 0.0
    for transition, dn in (((1, 2), 11), ((2, 3), 13)):
        point, resid = contour_arc_crossing(LADDER, transition, dn, 1e-3, nodes=512)
        again = _transition_gap(LADDER, point[0], point[1], transition,
                                LADDER.n0, 1024) - dn
        worst_radius = max(worst_radius, math.hypot(*point))
        worst_resid = max(worst_resid, abs(resid), abs(again))
    ok = worst_radius <= 1e-3 + 1e-12 and worst_resid <= 1e-6
    assert report("4 contours terminate at origin", t0, ok,
                  f"radius {worst_radius:.1e}, residual {worst_resid:.1e}") and ok


def test_criterion_05_spectral_periodicity():
    t0 = time.time()
    n0 = 10**8
    which = [(1, n0 + 1), (1, n0 + 3), (2, n0), (2, n0 + 2), (3, n0 + 1), (3, n0 + 3)]
    tracked = track_levels(LADDER, (0.0, 0.0), (0.5, 0.5), 16, n0, 400, which)
    e = tracked.energies[-1]
    deviation = max(abs(e[1] - e[0] - 2.0), abs(e[3] - e[2] - 2.0),
                    abs(e[5] - e[4] - 2.0))
    ok = deviation <= 1e-6
    assert report("5 spectral periodicity", t0, ok, f"dev {deviation:.2e}") and ok


def test_criterion_06_wkb_vs_grid_oracle():
    t0 = time.time()
    gaps = []
    for n in (100, 400, 1000):
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.5, 0.5, n)
        worst = max(abs(wkb_levels(p, n)[j - 1] - h0_level_fd(p, j, n)) for j in (1, 2, 3))
        gaps.append(worst)
    elapsed = time.time() - t0
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 1e-2 and elapsed < 120.0
    assert report("6 orbit average vs grid oracle", t0, ok,
                  "diffs " + " ".join(f"{g:.1e}" for g in gaps)) and ok


@pytest.fixture(scope="module")
def benign_line_records():
    return compare_splittings(LADDER, 0.3, range(13, 28, 2), (1, 2),
                              half_width=400, g1_max=1.1)


def test_criterion_07_splitting_agreement_bands(benign_line_records):
    t0 = time.time()
    records = benign_line_records
    ratios = np.array([r.ratio for r in records])
    ok_records = all(r.ok for r in records)
    outer = np.all((ratios >= 0.5) & (ratios <= 2.0))
    inner = np.mean((ratios >= 0.8) & (ratios <= 1.25)) >= 0.75
    ok = ok_records and bool(outer) and bool(inner)
    assert report("7a splitting ratio bands", t0, ok,
                  "ratios " + " ".join(f"{r:.2f}" for r in ratios)) and ok


def test_criterion_07_exact_gap_trend_as_specified(benign_line_records):
    # the (1,2) gap is 11 quanta at zero coupling, so a dn-quantum resonance
    # needs a Bloch-Siegert shift of dn - 11 quanta: each successive
    # anticrossing sits at a larger coupling, where its splitting is larger.
    # The exact minima, the exact gaps and the two-state estimate must all
    # rise strictly at every step.
    t0 = time.time()
    records = benign_line_records
    g_star = [r.g_star[0] for r in records]
    exact = [r.de_exact for r in records]
    pt = [r.de_pt for r in records]

    def rising(values):
        return all(a < b for a, b in zip(values, values[1:]))

    ok = (all(r.ok for r in records)
          and rising(g_star) and rising(exact) and rising(pt))
    assert report("7b exact gaps rise with quanta", t0, ok,
                  "g1* " + " ".join(f"{g:.3f}" for g in g_star)
                  + " | exact " + " ".join(f"{g:.1e}" for g in exact)
                  + " | pt " + " ".join(f"{g:.1e}" for g in pt)) and ok


def test_criterion_08_interference_doubling():
    t0 = time.time()
    scan = anticrossing_gap(LADDER, ((0.0, 0.0), (1.0, 0.1)), 23, (1, 2),
                            10**8, 400, mode="nearest", vicinity=0.09,
                            scan_points=401)
    deep = [m for m in scan.minima if m[2] < 0.1]
    g1c, g2c = None, None
    from triladder import contour_point_on_line
    g1c, g2c = contour_point_on_line(LADDER, (1, 2), 23, ratio=0.1, g1_max=1.0)
    pt = pt_splitting(LADDER.with_couplings(g1c, g2c), (1, 2), 23)
    ratio = pt / min(m[2] for m in deep) if deep else float("nan")
    ok = len(deep) == 2 and not (0.5 <= ratio <= 2.0)
    assert report("8 interference doubling", t0, ok,
                  f"{len(deep)} minima, pt/exact {ratio:.1f}") and ok


def test_criterion_09_element_method_cross_check():
    t0 = time.time()
    n = 500
    p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.5, 0.15, n)
    worst = 0.0
    for dn in range(11, 22, 2):
        hermite = v_matrix_element(p, 1, 2, n, n - dn, "hermite-quadrature")
        window = v_matrix_element(p, 1, 2, n, n - dn, "fock-window")
        worst = max(worst, abs(hermite / window - 1.0))
    ok = worst <= 1e-6
    assert report("9 element method cross-check", t0, ok,
                  f"worst rel {worst:.1e}") and ok


def test_criterion_10_invariant_suite():
    t0 = time.time()
    results = run_all()
    clean = all(r.passed for r in results)
    trips = all(any(not r.passed for r in run_all(fault=fault))
                for fault in ("derivative", "parity", "trace", "even",
                              "blocks", "gauge", "determinism"))
    elapsed = time.time() - t0
    ok = clean and trips and elapsed < 180.0
    assert report("10 invariant suite + faults", t0, ok,
                  f"{sum(r.passed for r in results)}/{len(results)} clean") and ok
