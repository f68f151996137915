import numpy as np
import pytest

from triladder import (ConvergenceError, ModelParams, OffResonanceError,
                       anticrossing_gap, compare_splittings, contour_point_on_line,
                       pt_splitting, v_matrix_element)
from triladder import dressed
from triladder.fock import central_quantum


class TestPtSplitting:
    def test_even_exchange_rejected(self, ladder):
        with pytest.raises(ValueError):
            pt_splitting(ladder.with_couplings(0.3, 0.09), (1, 2), 12)

    def test_off_resonance_rejected(self, ladder):
        # the 13-quantum resonance is nowhere near this point
        with pytest.raises(OffResonanceError):
            pt_splitting(ladder.with_couplings(0.05, 0.015), (1, 2), 13)

    def test_decoupled_transition_gives_zero(self):
        # lower coupling off: bisect along the g2 axis for the (1,2)
        # resonance with 9 quanta, then check the estimate vanishes
        from triladder import dressed_transition
        remote = ModelParams(0.0, 11.0, 100.0, 0.0, 0.0, 10**8)
        lo, hi = 0.01, 0.15
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if dressed_transition(remote.with_couplings(0.0, mid), 1, 2) > 9.0:
                lo = mid
            else:
                hi = mid
        params = remote.with_couplings(0.0, 0.5 * (lo + hi))
        value = pt_splitting(params, (1, 2), 9, resonance_tol=1e-3)
        assert value == 0.0

    def test_estimate_sits_near_exact_gap(self, ladder):
        gc = contour_point_on_line(ladder, (1, 2), 15, ratio=0.3)
        params = ladder.with_couplings(*gc)
        de = pt_splitting(params, (1, 2), 15)
        assert de == pytest.approx(1.698e-3, rel=0.25)

    def test_bare_oscillator_element_far_too_small(self, ladder):
        gc = contour_point_on_line(ladder, (1, 2), 15, ratio=0.3)
        params = ladder.with_couplings(*gc)
        dressed_waves = pt_splitting(params, (1, 2), 15)
        nb = central_quantum(1, params.n0)
        bare_waves = 2.0 * abs(v_matrix_element(params, 1, 2, nb, nb - 15, "fock-window"))
        assert bare_waves < dressed_waves / 10


class TestContourPoint:
    def test_unreachable_tolerance_raises(self, ladder, monkeypatch):
        # a mismatch that changes sign at g1 = 0.3 but never comes within the
        # tolerance: the line search that both callers share exhausts its
        # halvings, whatever the roundoff of the kernel
        monkeypatch.setattr(dressed, "_transition_gap",
                            lambda template, g1, g2, jk, n, nodes:
                            np.where(np.asarray(g1) < 0.3, 16.5, 17.5))
        with pytest.raises(ConvergenceError, match="200 bisections"):
            contour_point_on_line(ladder, (1, 2), 17, ratio=0.5)
        with pytest.raises(ConvergenceError, match="200 bisections"):
            anticrossing_gap(ladder, ((0.0, 0.0), (1.05, 0.525)), 17, (1, 2), 10**8, 400)


class TestCompare:
    def test_empty_request_gives_empty_records(self, ladder):
        assert compare_splittings(ladder, 0.3, []) == []

    def test_even_exchange_rejected(self, ladder):
        with pytest.raises(ValueError):
            compare_splittings(ladder, 0.3, [14])

    def test_one_benign_record(self, ladder):
        records = compare_splittings(ladder, 0.3, [15], half_width=400)
        assert len(records) == 1
        r = records[0]
        assert r.ok
        assert r.transition == (1, 2) and r.delta_n == 15
        assert 0.5 <= r.ratio <= 2.0
        assert abs(r.g_contour[0] - r.g_star[0]) <= 0.02 * r.g_star[0]
        assert r.g_contour[1] == pytest.approx(0.3 * r.g_contour[0], rel=1e-9)
        # the record carries the dressed point that the gap scan located
        assert r.g_contour == contour_point_on_line(ladder, (1, 2), 15, ratio=0.3)

    def test_unreachable_resonance_marked_invalid(self, ladder):
        records = compare_splittings(ladder, 0.3, [29, 15], half_width=400,
                                     g1_max=1.05)
        assert [r.delta_n for r in records] == [15, 29]
        assert records[0].ok
        assert not records[1].ok
        assert "cross" in records[1].note

    def test_strong_upper_coupling_suppresses_exact_gaps(self, ladder):
        # when the upper coupling dominates, nearby upper-level resonances
        # split the crossing in two and drive the exact gap far below the
        # two-state estimate
        records = compare_splittings(ladder, 1.1, [13, 17], half_width=400,
                                     g1_max=0.7, mode="nearest", vicinity=0.10,
                                     scan_points=301)
        for r in records:
            assert r.ok
            deep = [m for m in r.minima if m[2] < 0.2]
            assert len(deep) >= 2
            assert r.de_pt / r.de_exact > 3.0
