import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triladder import (ConvergenceError, ModelParams, contour_arc_crossing,
                       contour_point_on_line, dressed_transition, eigenvalues_at,
                       h0_level_fd, resonance_contour, wkb_levels)
from triladder import dressed
from triladder.dressed import _CHUNK_POINTS, _bisect_root, _orbit_levels
from triladder.trilevel import _amplitudes

from conftest import _count_nodes, _sinc_kinetic, random_params


class TestWkbAverage:
    def test_zero_coupling_returns_bare_levels(self, ladder):
        for j, e in ((1, 0.0), (2, 11.0), (3, 24.0)):
            assert wkb_levels(ladder)[j - 1] == pytest.approx(e, abs=1e-10)

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
        vals = [_orbit_levels(p, p.u, p.v, p.n0, nodes)[0] for nodes in (16, 32, 64, 128)]
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


class TestOrbitLevels:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n0=st.integers(1, 10**8),
           n=st.integers(0, 10**8), nodes=st.integers(16, 600), data=st.data())
    def test_matches_per_point_oracle(self, seed, n0, n, nodes, data):
        rng = np.random.default_rng(seed)
        template = random_params(rng, n0=n0)
        # one block of the batch, or more than one
        per_block = _CHUNK_POINTS // (nodes - nodes // 2)
        count = (data.draw(st.integers(0, 1), label="full blocks") * per_block
                 + data.draw(st.integers(1, per_block), label="points"))
        g1, g2 = rng.uniform(0.0, 1.5, count), rng.uniform(0.0, 1.5, count)
        u, v = _amplitudes(template.e1, template.e2, template.e3, template.n0, g1, g2)
        got = _orbit_levels(template, u, v, n, nodes)
        assert got.shape == (count, 3)
        theta = (2.0 * np.arange(1, nodes + 1) - 1.0) * np.pi / (2.0 * nodes)
        y = math.sqrt(2.0 * n + 1.0) * np.cos(theta)
        for i in range(count):
            p = template.with_couplings(g1[i], g2[i])
            assert (p.u, p.v) == (u[i], v[i])
            expect = eigenvalues_at(p, y).mean(axis=0)
            assert np.all(np.abs(got[i] - expect) <= 1e-12 * np.maximum(1.0, np.abs(expect)))

    @pytest.mark.parametrize("nodes", [64, 65])
    def test_point_bits_independent_of_batch(self, ladder, nodes):
        # a point's levels come out bit for bit the same alone, inside a batch
        # and on either side of a block boundary, whatever the batch offset
        per_block = _CHUNK_POINTS // (nodes - nodes // 2)
        g = np.random.default_rng(7).uniform(0.0, 1.5, (2, per_block + 9))
        u, v = _amplitudes(ladder.e1, ladder.e2, ladder.e3, ladder.n0, g[0], g[1])
        batch = _orbit_levels(ladder, u, v, ladder.n0, nodes)
        shifted = _orbit_levels(ladder, u[5:], v[5:], ladder.n0, nodes)
        assert np.array_equal(batch[5:], shifted)
        for i in (0, 1, per_block - 6, per_block - 1, per_block, per_block + 3, u.size - 1):
            alone = _orbit_levels(ladder, u[i], v[i], ladder.n0, nodes)
            assert np.array_equal(alone[0], batch[i])

    def test_rejects_negative_or_non_finite_couplings(self, ladder):
        for u, v in (([0.1, -1e-12], [0.0, 0.0]), ([0.1], [np.nan]), ([np.inf], [0.1])):
            with pytest.raises(ValueError, match="coupling amplitudes"):
                _orbit_levels(ladder, np.array(u), np.array(v), ladder.n0, 64)

    @pytest.mark.parametrize("average", [
        lambda p: resonance_contour(p, (1, 2), [13]),
        lambda p: dressed_transition(p.with_couplings(0.1, 0.1), 1, 2),
    ], ids=["contour", "transition"])
    def test_every_average_needs_16_nodes(self, ladder, average, monkeypatch):
        # both entry points take their node count from WKB_DEFAULT_NODES
        # and refuse one below 16, as _orbit_levels does
        with pytest.raises(ValueError, match="16 quadrature nodes"):
            _orbit_levels(ladder, 0.1, 0.1, ladder.n0, 15)
        monkeypatch.setattr(dressed, "WKB_DEFAULT_NODES", 8)
        with pytest.raises(ValueError, match="16 quadrature nodes"):
            average(ladder)

    @pytest.mark.parametrize("average", [
        lambda p: wkb_levels(p, -1),
        lambda p: dressed_transition(p.with_couplings(0.1, 0.1), 1, 2, n=-1),
    ], ids=["levels", "transition"])
    def test_every_average_needs_a_non_negative_n(self, ladder, average):
        with pytest.raises(ValueError, match="quantum number n must be >= 0, got -1"):
            average(ladder)


class TestGridOracle:
    def test_zero_coupling_recovers_oscillator(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 100)
        for j, e in ((1, 0.0), (2, 11.0), (3, 24.0)):
            assert h0_level_fd(p, j, 30) == pytest.approx(e, abs=1e-8)

    def test_two_level_reduction(self):
        # the lowest adiabatic curve of the u-only model has the closed form
        # 3 - sqrt(9 + 2 u^2 y^2) + 3; feeding it through the same grid
        # machinery must reproduce the three-level result
        n = 60
        p = ModelParams(0.0, 6.0, 30.0, 0.35, 0.0, n)
        got = h0_level_fd(p, 1, n)

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
            w = wkb_levels(p, n)[j - 1]
            f = h0_level_fd(p, j, n)
            assert abs(w - f) < 0.1

    def test_rejects_out_of_range_quantum_number(self, ladder):
        with pytest.raises(ValueError):
            h0_level_fd(ladder, 1, 5000)


class TestResonanceContours:
    def test_even_exchange_rejected(self, ladder):
        with pytest.raises(ValueError):
            resonance_contour(ladder, (1, 2), [12])
        with pytest.raises(ValueError):
            contour_arc_crossing(ladder, (1, 2), 12, 0.5)

    def test_even_exchange_anywhere_rejected_before_the_scan(self, ladder, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scanned before checking the quantum exchanges")

        monkeypatch.setattr(dressed, "_orbit_levels", no_scan)
        for dns in ([12, 13], [13, 15, 16], [13, -1]):
            with pytest.raises(ValueError, match="odd positive"):
                resonance_contour(ladder, (1, 2), dns)

    def test_one_point_scan_rejected_before_the_scan(self, ladder, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scanned before checking the scan size")

        monkeypatch.setattr(dressed, "_orbit_levels", no_scan)
        for points in (1, 0, -3):
            with pytest.raises(ValueError, match="scan_points"):
                resonance_contour(ladder, (1, 2), [13], scan_points=points)

    @pytest.mark.parametrize("points", [2, 3, 7, 160])
    def test_scan_grid_strictly_ascending(self, points):
        for radius in np.geomspace(1e-8, 10.0, 57).tolist() + [1e-3, 0.0005, 1.25]:
            ts = dressed._scan_grid(radius, points)
            assert ts.size == points
            assert ts[-1] == radius
            assert ts[0] > 0 and np.all(np.diff(ts) > 0)
        # the default grid keeps its decades 1e-4 .. radius/10 below the linear part
        ts = dressed._scan_grid(1.25, 160)
        assert (ts[0], ts[52], ts[53]) == (1e-4, 0.125, 0.125 + 1.125 / 107)

    def test_small_radius_brackets_each_crossing_once(self):
        # at radius 5e-4 a geometric part starting at 1e-4 would run down into
        # the linear part, bracket the diagonal crossing twice and never reach
        # ray 0's crossing at 3.0e-5; at 1.1e-3 and 2e-3 one starting at 1e-4
        # would crowd below radius/10 and miss both crossings.  The transition
        # is flat here (mismatch -4e-8 at zero coupling), so a search that
        # stopped on a residual would return a point set by the scan grid;
        # closed to roundoff, both points are the same at every radius.
        template = ModelParams.from_dimensionless(0.0, 10.99999996, 24.0, 0.0, 0.0, 10**8)
        ray0, diagonal = [], []
        for radius in (0.0005, 1e-3, 1.1e-3, 2e-3):
            c, = resonance_contour(template, (1, 2), [11],
                                   angles=np.linspace(0, np.pi / 2, 3), radius=radius)
            assert not np.any(c.multiple)
            assert np.array_equal(c.angles, [0.0, np.pi / 4])
            assert np.array_equal(c.missed_angles, [np.pi / 2])
            assert np.max(np.abs(c.residuals)) <= 1e-12
            ray0.append(c.points[0, 0])
            diagonal.append(math.hypot(*c.points[1]))
        for points in (ray0, diagonal):
            assert max(points) - min(points) <= 1e-6 * min(points)
        assert ray0[0] == pytest.approx(3.015113e-5, rel=1e-6)
        # ray 0 really changes sign there
        below, above = (dressed_transition(template.with_couplings(g, 0.0), 1, 2) - 11
                        for g in ((1 - 1e-4) * ray0[0], (1 + 1e-4) * ray0[0]))
        assert below < 0 < above

    def test_rays_outside_the_quadrant_and_bad_radius_rejected(self, ladder):
        for angles in ([-0.1, 0.5], [0.2, np.pi / 2 + 0.01], [0.3, np.nan]):
            with pytest.raises(ValueError, match="ray angles"):
                resonance_contour(ladder, (1, 2), [13], angles=np.array(angles),
                                  scan_points=20)
        for radius in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match="radius"):
                resonance_contour(ladder, (1, 2), [13], radius=radius, scan_points=20)

    def test_one_scan_serves_every_exchange_in_order(self, ladder):
        kw = dict(angles=np.linspace(0.0, np.pi / 2, 7), scan_points=60)
        both = resonance_contour(ladder, (1, 2), [15, 13], **kw)
        assert [c.delta_n for c in both] == [15, 13]
        for c in both:
            alone, = resonance_contour(ladder, (1, 2), [c.delta_n], **kw)
            for field in ("points", "angles", "residuals", "multiple", "missed_angles"):
                assert np.array_equal(getattr(c, field), getattr(alone, field))
        assert resonance_contour(ladder, (1, 2), [], **kw) == []

    def test_unordered_transition_rejected(self, ladder):
        with pytest.raises(ValueError):
            resonance_contour(ladder, (2, 1), [11])

    def test_contour_points_verify_residual(self, ladder):
        c, = resonance_contour(ladder, (1, 2), [13],
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

    def test_unreachable_tolerance_raises(self, ladder, monkeypatch):
        # a mismatch that jumps from -0.5 to 0.5 at g1 = 0.3: both searches
        # close onto the jump, and the mismatch there is refused at once
        monkeypatch.setattr(dressed, "_transition_gap",
                            lambda template, g1, g2, jk, n, nodes:
                            np.where(np.asarray(g1) < 0.3, 12.5, 13.5))
        with pytest.raises(ConvergenceError, match="ray 0.1 leaves a mismatch of"):
            resonance_contour(ladder, (1, 2), [13], angles=np.array([0.1]),
                              scan_points=30)
        with pytest.raises(ConvergenceError, match="leaves a mismatch of"):
            contour_arc_crossing(ladder, (1, 2), 13, 0.5)

    def test_line_and_arc_roots_verified_at_doubled_nodes(self, ladder, monkeypatch):
        # a mismatch off by 1e-3 at the 512 nodes of a line or an arc only:
        # the root found there fails its check at 1024 nodes and is found
        # again at 1024, where it is g1 = 0.3
        monkeypatch.setattr(dressed, "_transition_gap",
                            lambda template, g1, g2, jk, n, nodes:
                            13.0 + (np.asarray(g1) - 0.3) + (1e-3 if nodes == 512 else 0.0))
        (g1, g2), resid = contour_arc_crossing(ladder, (1, 2), 13, 0.5)
        assert abs(g1 - 0.3) <= 1e-12 and abs(resid) <= 1e-12
        g1, g2 = contour_point_on_line(ladder, (1, 2), 13, ratio=0.5)
        assert abs(g1 - 0.3) <= 1e-12

    def test_doubled_nodes_evaluated_once_a_round(self, ladder, monkeypatch):
        # points accepted in the first round report the verification values
        calls = []
        gap = dressed._transition_gap

        def spy(template, g1, g2, jk, n, nodes):
            calls.append(nodes)
            return gap(template, g1, g2, jk, n, nodes)

        monkeypatch.setattr(dressed, "_transition_gap", spy)
        c, = resonance_contour(ladder, (1, 2), [13], angles=np.linspace(0.0, np.pi / 2, 7),
                               scan_points=60)
        assert len(c.points) > 0
        assert calls.count(512) == 1
        again = gap(ladder, c.points[:, 0], c.points[:, 1], (1, 2), ladder.n0, 512) - 13
        assert np.array_equal(c.residuals, again)

    def test_later_rounds_and_table_zeros_report_doubled_nodes(self, ladder, monkeypatch):
        # a mismatch off by 1e-3 at the base count only: the first round's
        # point fails its check, the second round's passes, and its residual
        # is the mismatch at twice the base count, not the failed check
        monkeypatch.setattr(dressed, "_transition_gap",
                            lambda template, g1, g2, jk, n, nodes:
                            13.0 + (np.asarray(g1) - 0.3) + (1e-3 if nodes == 256 else 0.0))
        c, = resonance_contour(ladder, (1, 2), [13], angles=np.array([0.0]),
                               scan_points=30)
        assert c.points[0, 0] == pytest.approx(0.3, abs=1e-12)
        assert abs(c.residuals[0]) <= 1e-12
        # a scan radius where the table is exactly zero
        hit = dressed._scan_grid(1.25, 30)[12]
        monkeypatch.setattr(dressed, "_transition_gap",
                            lambda template, g1, g2, jk, n, nodes:
                            13.0 + (np.asarray(g1) - hit) + (0.0 if nodes == 256 else 2e-7))
        c, = resonance_contour(ladder, (1, 2), [13], angles=np.array([0.0]),
                               scan_points=30)
        assert c.points[0, 0] == hit
        assert c.residuals[0] == pytest.approx(2e-7, rel=1e-6)

    def test_missing_bracket_reported_not_fatal(self, ladder):
        c, = resonance_contour(ladder, (1, 2), [25],
                               angles=np.array([0.02, 1.55]), radius=0.3,
                               scan_points=50)
        assert len(c.missed_angles) == 2
        assert len(c.points) == 0


class TestBisectRoot:
    @staticmethod
    def counted(f):
        calls = []

        def g(x, *args):
            calls.append(np.array(x))
            return f(x, *args)
        return g, calls

    def test_closes_to_roundoff(self):
        f, calls = self.counted(lambda x: x * x - 2.0)
        root, value = _bisect_root(f, [1.0], [2.0], "sqrt(2)")
        assert abs(root[0] - math.sqrt(2.0)) <= 2 * np.spacing(math.sqrt(2.0))
        assert len(calls) <= 12
        # the returned value is f at the returned point, the last one evaluated
        assert root[0] == calls[-1][0] and value[0] == root[0] * root[0] - 2.0

    def test_exact_zero_returns_at_once(self):
        f, calls = self.counted(lambda x: x - 0.5)
        # at an end: only the two ends are evaluated
        assert _bisect_root(f, [0.5], [1.0], "x = 1/2") == (0.5, 0.0)
        assert _bisect_root(f, [0.0], [0.5], "x = 1/2") == (0.5, 0.0)
        assert len(calls) == 4
        # at the first step: the secant of a line hits its root
        calls.clear()
        assert _bisect_root(f, [0.0], [1.0], "x = 1/2") == (0.5, 0.0)
        assert len(calls) == 3

    def test_given_end_values_not_evaluated_again(self):
        f, calls = self.counted(lambda x: x * x - 2.0)
        expect = _bisect_root(f, [1.0], [2.0], "sqrt(2)")
        for given in ({"flo": [-1.0]}, {"fhi": [2.0]}, {"flo": [-1.0], "fhi": [2.0]}):
            calls.clear()
            assert _bisect_root(f, [1.0], [2.0], "sqrt(2)", **given) == expect
            evaluated = np.concatenate(calls)
            assert ("flo" in given) == (1.0 not in evaluated)
            assert ("fhi" in given) == (2.0 not in evaluated)

    def test_unreachable_tolerance_raises(self):
        # infinite end values give the secant no slope, so every step is a
        # midpoint; closing [0, 1e60] onto x = 1 takes about 250 halvings,
        # more than the step cap allows
        f, calls = self.counted(lambda x: np.where(x < 1.0, -np.inf, np.inf))
        with np.errstate(invalid="ignore"), \
                pytest.raises(ConvergenceError,
                              match=r"x = 1 not closed after 200 steps; bracket \[0\.\d+, 1\.\d+\]"):
            _bisect_root(f, [0.0], [1e60], "x = 1")
        assert len(calls) == 2 + 200

    @pytest.mark.parametrize("below,above", [(-0.5, 1e6), (1e6, -0.5)])
    def test_lopsided_jump_closes(self, below, above):
        # across a jump whose sides differ by orders of magnitude, Illinois
        # steps alone keep one end and crawl (200 steps did not close this);
        # a midpoint after an end has been kept three steps running closes it
        f, calls = self.counted(lambda x: np.where(x < 0.3, below, above))
        root, value = _bisect_root(f, [0.0], [1.0], "x = 0.3")
        assert abs(root[0] - 0.3) <= 4 * np.spacing(0.3)
        assert value[0] in (below, above)
        assert len(calls) <= 111        # 99 rising, 111 falling

    def test_brackets_bisect_as_if_alone(self):
        # every bracket follows its own step sequence and stops on its own,
        # so the batch returns what one-bracket calls return
        targets = np.array([2.0, 3.0, 0.25, 5.0, 7.0])
        signs = np.array([1.0, -1.0, 1.0, -1.0, 1.0])    # rising and falling
        lo = np.array([1.0, 1.0, 0.5, 2.0, 2.0])
        hi = np.array([2.0, 2.0, 1.0, 3.0, 3.0])
        roots, values = _bisect_root(lambda x, c, s: s * (x * x - c), lo, hi, "root",
                                     args=(targets, signs))
        for i in range(targets.size):
            alone = _bisect_root(lambda x: signs[i] * (x * x - targets[i]),
                                 lo[i:i + 1], hi[i:i + 1], "root")
            assert (roots[i], values[i]) == (alone[0][0], alone[1][0])
            assert abs(roots[i] - math.sqrt(targets[i])) <= 4 * np.spacing(roots[i])
        assert (roots[2], values[2]) == (0.5, 0.0)    # a zero at an end

    def test_failing_bracket_is_named(self, monkeypatch):
        # the first bracket has its root at an end, the second needs more
        # than 3 steps
        monkeypatch.setattr(dressed, "_MAX_ROOT_STEPS", 3)
        with pytest.raises(ConvergenceError,
                           match=r"bracket 1 not closed after 3 steps; bracket \[1\.\d+, "):
            _bisect_root(lambda x, c: x * x - c, np.array([0.5, 1.0]), np.array([1.0, 2.0]),
                         lambda i: f"bracket {i}", args=(np.array([0.25, 2.0]),))
