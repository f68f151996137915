import math

import numpy as np
import pytest

from triladder import (ConvergenceError, ModelParams, OffResonanceError,
                       anticrossing_gap, compare_splittings, contour_point_on_line,
                       pt_splitting, resonance_contour, v_matrix_element)
from triladder import dressed, fock, splittings
from triladder.fock import central_quantum


class TestPtSplitting:
    def test_even_exchange_rejected(self, ladder):
        with pytest.raises(ValueError):
            pt_splitting(ladder.with_couplings(0.3, 0.09), (1, 2), 12)

    def test_parity_forbidden_pair_rejected_before_any_work(self, ladder, monkeypatch):
        # with an odd exchange, (1, n) and (3, n - delta_n) lie in different
        # parity sectors: they are not coupled and cross exactly
        for module, name in ((splittings, "_transition_gap"), (fock, "_line_resonance"),
                             (splittings, "_line_resonance"),
                             (splittings, "anticrossing_gap")):
            monkeypatch.setattr(module, name, None)
        params = ladder.with_couplings(0.5, 0.15)
        with pytest.raises(ValueError, match="share one parity sector"):
            pt_splitting(params, (1, 3), 25)
        with pytest.raises(ValueError, match="share one parity sector"):
            anticrossing_gap(ladder, (1.05, 0.315), 25, (1, 3), 400)
        with pytest.raises(ValueError, match="share one parity sector"):
            compare_splittings(ladder, 0.3, [26, 25], (1, 3))
        with pytest.raises(ValueError, match="share one parity sector"):
            contour_point_on_line(ladder, (1, 3), 25, ratio=0.3)
        # a transition that names no two levels 1 <= j < k <= 3
        for bad in ((1, 4), (1, 5), (2, 1), (0, 1)):
            with pytest.raises(ValueError, match=r"1 <= j < k <= 3"):
                pt_splitting(params, bad, 13)
            with pytest.raises(ValueError, match=r"1 <= j < k <= 3"):
                anticrossing_gap(ladder, (1.05, 0.315), 13, bad, 400)
            with pytest.raises(ValueError, match=r"1 <= j < k <= 3"):
                contour_point_on_line(ladder, bad, 13, ratio=0.3)
            with pytest.raises(ValueError, match=r"1 <= j < k <= 3"):
                compare_splittings(ladder, 0.3, [13], bad)

    def test_off_resonance_rejected(self, ladder):
        # the 13-quantum resonance is nowhere near this point
        with pytest.raises(OffResonanceError):
            pt_splitting(ladder.with_couplings(0.05, 0.015), (1, 2), 13)

    def test_point_beside_the_resonance_refused(self, ladder):
        # the seed-0 delta_n 15 point on g2 = 0.3 g1, moved 1e-6 relative along
        # the line: its mismatch at twice RESONANCE_NODES is 6.5e-6
        g1, g2 = contour_point_on_line(ladder, (1, 2), 15, ratio=0.3, g1_max=1.1)
        assert pt_splitting(ladder.with_couplings(g1, g2), (1, 2), 15) > 0.0
        beside = ladder.with_couplings(g1 * (1.0 + 1e-6), g2 * (1.0 + 1e-6))
        with pytest.raises(OffResonanceError, match=r"by 6\.\d+e-06"):
            pt_splitting(beside, (1, 2), 15)

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
        value = pt_splitting(params, (1, 2), 9)
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
        bare_waves = 2.0 * abs(v_matrix_element(params, 1, 2, nb, nb - 15))
        assert bare_waves < dressed_waves / 10


class TestContourPoint:
    def test_unreachable_tolerance_raises(self, ladder, monkeypatch):
        # a mismatch that jumps from -0.5 to 0.5 at g1 = 0.3: the line search
        # that both callers share closes onto the jump, and the mismatch there
        # fails the verification
        monkeypatch.setattr(dressed, "_transition_gap",
                            lambda template, g1, g2, jk, n, nodes:
                            np.where(np.asarray(g1) < 0.3, 16.5, 17.5))
        with pytest.raises(ConvergenceError, match="leaves a mismatch of"):
            contour_point_on_line(ladder, (1, 2), 17, ratio=0.5)
        with pytest.raises(ConvergenceError, match="leaves a mismatch of"):
            anticrossing_gap(ladder, (1.05, 0.525), 17, (1, 2), 400)


class TestUpperPair:
    def test_even_exchange_contour_meets_the_exact_gap(self, ladder):
        # (1,3) couples at even exchanges only.  The delta_n 28 contour, from
        # the ray scan and from the line search alike, crosses g2 = 0.3 g1
        # within 3e-3 in g1 of the exact gap minimum (0.46527 against 0.46367)
        contour, = resonance_contour(ladder, (1, 3), [28], angles=[math.atan(0.3)])
        record, = compare_splittings(ladder, 0.3, [28], (1, 3))
        assert record.ok and record.transition == (1, 3) and record.de_exact > 0.0
        assert contour.points[0] == pytest.approx(record.g_contour, rel=1e-9)
        assert abs(record.g_contour[0] - record.g_star[0]) <= 3e-3
        # the first-order element is not the leading order of a (1,3) gap
        assert record.ratio < 0.1


class TestCompare:
    def test_empty_request_gives_empty_records(self, ladder):
        assert compare_splittings(ladder, 0.3, []) == []

    def test_even_exchange_rejected(self, ladder):
        with pytest.raises(ValueError):
            compare_splittings(ladder, 0.3, [14])

    def test_partner_outside_window_named(self, ladder):
        with pytest.raises(ValueError, match=r"\(2, 99999988\) is not in the even sector "
                                             r"of the window n0 \+- W = 100000000 \+- 10"):
            compare_splittings(ladder, 0.3, [13], half_width=10)

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
        # split the crossing and drive the deepest gap minimum far below the
        # two-state estimate, while the pair's own gap still follows it; at
        # delta_n 17 a third level is nearer to the pair at every minimum
        dn13, dn17 = compare_splittings(ladder, 1.1, [13, 17], half_width=400, g1_max=0.7)
        assert dn13.ok
        assert len([m for m in dn13.minima if m[2] < 0.2]) >= 2
        assert dn13.de_pt / min(m[2] for m in dn13.minima) > 3.0
        assert 0.5 <= dn13.de_pt / dn13.de_exact <= 2.0
        assert not dn17.ok and dn17.note.endswith("not one anticrossing")

    @pytest.mark.parametrize("ratio, dn", [(1.5, 15), (1.5, 19), (0.5, 17), (1.1, 17)])
    def test_pair_that_never_anticrosses_is_refused(self, ladder, ratio, dn):
        # at every gap minimum of these pairs a third level lies nearer to one
        # of the two than its partner; g2 = 1.5 g1 at delta_n 15 has no level
        # between the pair, yet its 1.43-quantum distance is no anticrossing
        (r,) = compare_splittings(ladder, ratio, [dn])
        assert not r.ok and r.note.endswith("not one anticrossing")
        assert math.isnan(r.de_exact) and r.minima == []
