import math

import numpy as np
import pytest

from triladder import (ConvergenceError, ModelParams, contour_arc_crossing,
                       dressed_transition, h0_level_fd, resonance_contour,
                       wkb_dressed_energy, wkb_levels)
from triladder.dressed import _bisect_root, _sinc_kinetic, _count_nodes, _wkb_average

from conftest import random_params


class TestWkbAverage:
    def test_zero_coupling_returns_bare_levels(self, ladder):
        for j, e in ((1, 0.0), (2, 11.0), (3, 24.0)):
            d = wkb_dressed_energy(ladder, j)
            assert d.energy == pytest.approx(e, abs=1e-10)
            assert d.method == "wkb"

    def test_sum_rule(self, rng):
        for _ in range(25):
            p = random_params(rng, n0=10**6, max_coupling=0.0).with_couplings(
                rng.uniform(0, 1), rng.uniform(0, 1))
            total = wkb_levels(p).sum()
            assert total == pytest.approx(p.e1 + p.e2 + p.e3, abs=1e-9)

    def test_levels_stay_sorted(self, ladder, rng):
        for _ in range(25):
            lv = wkb_levels(ladder.with_couplings(rng.uniform(0, 1), rng.uniform(0, 1.2)))
            assert lv[0] <= lv[1] <= lv[2]

    def test_node_doubling_converges_geometrically(self, ladder):
        p = ladder.with_couplings(0.5, 0.5)
        vals = [_wkb_average(p, p.n0, nodes) for nodes in (16, 32, 64, 128)]
        steps = [np.max(np.abs(vals[i + 1] - vals[i])) for i in range(3)]
        # at least geometric until the update hits the roundoff floor
        floor = 1e-12
        assert steps[1] <= max(0.5 * steps[0], floor)
        assert steps[2] <= max(0.5 * steps[1], floor)

    def test_small_coupling_limits(self, ladder):
        p = ladder.with_couplings(1e-4, 1e-4)
        assert dressed_transition(p, 1, 2) == pytest.approx(11.0, abs=1e-6)
        assert dressed_transition(p, 2, 3) == pytest.approx(13.0, abs=1e-6)

    def test_same_level_transition_is_zero(self, ladder):
        assert dressed_transition(ladder.with_couplings(0.5, 0.5), 2, 2) == 0.0

    def test_lower_gap_shrinks_when_upper_coupling_dominates(self, ladder):
        p = ladder.with_couplings(0.05, 0.9)
        assert dressed_transition(p, 1, 2) < 11.0

    def test_lower_gap_grows_along_first_axis(self, ladder):
        # with the upper coupling exactly off, the flat third level crosses
        # the rising branch inside the classical range at large g1, kinking
        # the integrand; a looser quadrature tolerance is plenty here
        values = [dressed_transition(ladder.with_couplings(g1, 0.0), 1, 2, tol=1e-7)
                  for g1 in np.linspace(0.0, 1.0, 50)]
        assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))


class TestGridOracle:
    def test_zero_coupling_recovers_oscillator(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 100)
        for j, e in ((1, 0.0), (2, 11.0), (3, 24.0)):
            d = h0_level_fd(p, j, 30)
            assert d.energy == pytest.approx(e, abs=1e-8)
            assert d.method == "fd"

    def test_two_level_reduction(self):
        # the lowest adiabatic curve of the u-only model has the closed form
        # 3 - sqrt(9 + 2 u^2 y^2) + 3; feeding it through the same grid
        # machinery must reproduce the three-level result
        n = 60
        p = ModelParams(0.0, 6.0, 30.0, 0.35, 0.0, n)
        got = h0_level_fd(p, 1, n).energy

        kmax = math.sqrt(2 * (n + 20))
        dx = math.pi / (1.3 * kmax)
        half = math.sqrt(2.0 * n + 1.0) * 1.3 + 10
        npts = int(2 * half / dx) + 1
        y = (np.arange(npts) - (npts - 1) / 2.0) * dx
        curve = 3.0 - np.sqrt(9.0 + 2.0 * (0.35 * y) ** 2)
        h = _sinc_kinetic(npts, dx) + np.diag(curve + 0.5 * y * y)
        import scipy.linalg
        vals, vecs = scipy.linalg.eigh(h, subset_by_index=[n, n])
        assert _count_nodes(vecs[:, 0]) == n
        expected = vals[0] - 0.5 - n
        assert got == pytest.approx(expected, abs=1e-8)

    def test_matches_wkb_at_moderate_quantum_number(self):
        n = 100
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.5, 0.5, n)
        for j in (1, 2, 3):
            w = wkb_dressed_energy(p, j, n).energy
            f = h0_level_fd(p, j, n).energy
            assert abs(w - f) < 0.1

    def test_rejects_out_of_range_quantum_number(self, ladder):
        with pytest.raises(ValueError):
            h0_level_fd(ladder, 1, 5000)


class TestResonanceContours:
    def test_even_exchange_rejected(self, ladder):
        with pytest.raises(ValueError):
            resonance_contour(ladder, (1, 2), 12)
        with pytest.raises(ValueError):
            contour_arc_crossing(ladder, (1, 2), 12, 0.5)

    def test_unordered_transition_rejected(self, ladder):
        with pytest.raises(ValueError):
            resonance_contour(ladder, (2, 1), 11)

    def test_contour_points_verify_residual(self, ladder):
        c = resonance_contour(ladder, (1, 2), 13,
                              angles=np.linspace(0.0, np.pi / 2, 19),
                              scan_points=80)
        assert len(c.points) > 0
        assert np.max(np.abs(c.residuals)) <= 1e-6
        # points come back ordered by ray angle
        assert np.all(np.diff(c.angles) >= 0)
        # and the resonance condition really holds there
        for (g1, g2), dn_resid in zip(c.points, c.residuals):
            p = ladder.with_couplings(g1, g2)
            assert dressed_transition(p, 1, 2) - 13 == pytest.approx(dn_resid, abs=1e-6)

    def test_low_order_contours_reach_small_couplings(self, ladder):
        (g1, g2), resid = contour_arc_crossing(ladder, (1, 2), 11, 0.05)
        assert math.hypot(g1, g2) == pytest.approx(0.05, rel=1e-12)
        assert abs(resid) <= 1e-6
        (g1, g2), resid = contour_arc_crossing(ladder, (2, 3), 13, 0.05)
        assert abs(resid) <= 1e-6

    def test_unreachable_tolerance_raises(self, ladder):
        # on this ray and this arc the residual never rounds to exactly zero,
        # so both searches exhaust their halvings instead of returning a
        # midpoint (elsewhere a zero residual can occur and is accepted)
        with pytest.raises(ConvergenceError, match="200 bisections"):
            resonance_contour(ladder, (1, 2), 13, angles=np.array([0.1]),
                              scan_points=30, residual_tol=0.0)
        with pytest.raises(ConvergenceError, match="200 bisections"):
            contour_arc_crossing(ladder, (1, 2), 11, 0.06, residual_tol=0.0)

    def test_missing_bracket_reported_not_fatal(self, ladder):
        c = resonance_contour(ladder, (1, 2), 25,
                              angles=np.array([0.02, 1.55]), radius=0.3,
                              scan_points=50)
        assert len(c.missed_angles) == 2
        assert len(c.points) == 0


class TestBisectRoot:
    def test_returns_midpoint_within_tolerance(self):
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 2.0

        root, value = _bisect_root(f, 1.0, 2.0, 1e-12, "sqrt(2)")
        assert root == calls[-1]
        assert value == f(root)
        assert abs(value) <= 1e-12
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)
        # an exact root at the first midpoint comes back at once
        assert _bisect_root(lambda x: x - 0.5, 0.0, 1.0, 0.0, "x = 1/2") == (0.5, 0.0)
        # a known f(lo) is not evaluated again
        calls.clear()
        _bisect_root(f, 1.0, 2.0, 1e-12, "sqrt(2)", flo=-1.0)
        assert 1.0 not in calls

    def test_unreachable_tolerance_raises(self):
        # x * x never rounds to exactly 2, so tol = 0 can never be met
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 2.0

        with pytest.raises(ConvergenceError, match="sqrt\\(2\\) .* 200 bisections"):
            _bisect_root(f, 1.0, 2.0, 0.0, "sqrt(2)")
        assert len(calls) == 1 + 200
