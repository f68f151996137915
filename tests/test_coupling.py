import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, reject, settings, strategies as st

from triladder import (ConvergenceError, ModelParams, TrackingError, coupling_matrix,
                       h0_level_fd, v_matrix_element, v_matrix_element_h0)
from triladder.fock import central_quantum
import triladder.coupling as coupling
import triladder.trilevel as trilevel

from conftest import (_count_nodes, _sinc_kinetic, eigenfunction_rows, hermite_element,
                      random_params)


def two_level_f12(u, gap, y):
    """Derivative of the two-level mixing angle, the closed form for F12."""
    return math.sqrt(2.0) * u * gap / (gap * gap + 8.0 * u * u * y * y)


class TestCouplingFunctions:
    def test_vanish_without_coupling(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 100)
        g = coupling_matrix(p, 0.9)
        assert (g[0, 1], g[0, 2], g[1, 2]) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("y", [0.0, 0.3, -1.3, 2.0])
    def test_two_level_closed_form(self, y):
        p = ModelParams(0.0, 11.0, 24.0, 1.0, 0.0, 100)
        g = coupling_matrix(p, y)
        assert g[0, 1] == pytest.approx(two_level_f12(1.0, 11.0, y), rel=1e-6)
        assert g[0, 2] == 0.0
        assert g[1, 2] == 0.0

    def test_antisymmetric_within_tolerance(self, rng):
        for _ in range(30):
            p = random_params(rng)
            y = rng.uniform(-3, 3)
            try:
                g = coupling_matrix(p, y)
            except trilevel.DegenerateLevelsError:
                continue
            anti = 0.5 * (g - g.T)
            sym = 0.5 * (g + g.T)
            if np.linalg.norm(anti) == 0.0:
                continue
            assert np.linalg.norm(sym) <= 1e-6 * np.linalg.norm(anti)

    def test_parity_in_coordinate(self):
        # adjacent-level functions are even, the crossing one is odd
        p = ModelParams(0.0, 11.0, 24.0, 0.7, 0.4, 100)
        for y in (0.4, 1.1, 2.3):
            plus = coupling_matrix(p, y)
            minus = coupling_matrix(p, -y)
            assert plus[0, 1] == pytest.approx(minus[0, 1], rel=1e-8)
            assert plus[1, 2] == pytest.approx(minus[1, 2], rel=1e-8)
            assert plus[0, 2] == pytest.approx(-minus[0, 2], rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("seed", [57, 210])
    def test_sign_independent_of_grid_reach(self, seed):
        # models where the dominant component of the outermost basis differs
        # between the two reaches; each window doubling reaches further out
        p = random_params(np.random.default_rng(seed))
        y = np.arange(-700, 701) / 20.0
        far = coupling._coupling_batch(p, y)[350:-350]
        assert np.array_equal(far, coupling._coupling_batch(p, y[350:-350]))

    def test_central_difference_order_two(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.7, 0.4, 100)
        y = 1.3

        def raw(h):
            _, (minus, base, plus) = trilevel._chained_bases(p, [y - h, y, y + h])
            return base.T @ (plus - minus) / (2 * h)

        h = 1e-3
        g1, g2, g4 = raw(h), raw(h / 2), raw(h / 4)
        order = np.log2(np.abs((g1 - g2) / (g2 - g4)))
        for pair in ((0, 1), (0, 2), (1, 2)):
            assert order[pair] == pytest.approx(2.0, abs=0.2)


class TestMatrixElements:
    def test_request_validation(self, monkeypatch):
        # rejected before any evaluation
        monkeypatch.setattr(coupling, "_refine", None)
        p = ModelParams(0.0, 11.0, 24.0, 0.1, 0.1, 100)
        with pytest.raises(ValueError):
            v_matrix_element(p, 1, 1, 10, 9)
        with pytest.raises(ValueError):
            v_matrix_element(p, 1, 2, -1, 9)
        for j, k, n in ((2, 2, 10), (0, 2, 10), (1, 2, -1)):
            with pytest.raises(ValueError):
                v_matrix_element_h0(p, j, k, n, 9)

    def test_decoupled_level_gives_zero(self):
        n = 500
        p = ModelParams(0.0, 11.0, 24.0, 0.0, 0.2, n)
        elem = v_matrix_element(p, 1, 2, n, n - 11)
        assert elem == 0.0

    def test_parity_selection(self):
        n = 200
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.5, 0.3, n)
        allowed = abs(v_matrix_element(p, 1, 2, n, n - 11))
        for j, k, dm in ((1, 2, 2), (1, 2, 10), (2, 3, 4), (1, 3, 3)):
            elem = v_matrix_element(p, j, k, n, n - dm)
            assert abs(elem) <= 1e-10 * max(allowed, 1.0)

    def test_hermitian_pairing(self):
        n = 300
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.5, 0.3, n)
        for j, k, m in ((1, 2, n - 11), (2, 3, n - 13), (1, 3, n - 12)):
            a = v_matrix_element(p, j, k, n, m)
            b = v_matrix_element(p, k, j, m, n)
            assert a == pytest.approx(b, rel=1e-8, abs=1e-15)

    def test_methods_agree(self):
        n = 500
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.5, 0.15, n)
        for dn in (11, 13):
            eh = hermite_element(p, 1, 2, n, n - dn)
            ef = v_matrix_element(p, 1, 2, n, n - dn)
            assert eh == pytest.approx(ef, rel=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(16, 300),
           pair=st.sampled_from([(1, 2), (2, 3), (1, 3)]), dm=st.integers(1, 15))
    @example(seed=80, n=16, pair=(1, 2), dm=8)      # the reference does not settle
    def test_matches_hermite_reference_or_raises(self, seed, n, pair, dm):
        p = random_params(np.random.default_rng(seed))
        j, k = pair
        # F12 and F23 are even in y and F13 odd: (n, m) is allowed when
        # n - m + k - j is even, and m + 1 is then forbidden
        m = n - dm if (dm + k - j) % 2 == 0 else n - dm - 1
        try:
            allowed = v_matrix_element(p, j, k, n, m)
            forbidden = v_matrix_element(p, j, k, n, m + 1)
        except (ConvergenceError, TrackingError):
            return
        try:
            reference = hermite_element(p, j, k, n, m)
            reference_forbidden = hermite_element(p, j, k, n, m + 1)
        except ConvergenceError:
            reject()        # a draw without a settled reference checks nothing
        assert allowed == pytest.approx(reference, rel=1e-6)
        bound = 1e-10 * max(abs(allowed), 1.0)
        assert abs(forbidden) <= bound
        assert abs(reference_forbidden) <= bound

    @pytest.mark.parametrize("element", [v_matrix_element, v_matrix_element_h0])
    def test_unsettled_element_raises(self, element, monkeypatch):
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.5, 0.15, 100)
        window_element = coupling._window_element

        def drifting(params, pair, nodes, num, left, right):
            # a value that grows with the window keeps the element moving as it doubles
            value, floor = window_element(params, pair, nodes, num, left, right)
            return value * (1.0 + 1e-3 * nodes.size), floor

        monkeypatch.setattr(coupling, "_window_element", drifting)
        with pytest.raises(ConvergenceError, match="not stable under window refinement"):
            element(p, 1, 2, 100, 89)

    def test_multiphoton_suppression_at_fixed_couplings(self):
        n0 = 10**8
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.6, 0.18, n0)
        mags = [abs(v_matrix_element(p, 1, 2, n0, n0 - dn))
                for dn in range(11, 27, 2)]
        assert all(a > b for a, b in zip(mags, mags[1:]))


class TestRotatedFrameElements:
    def test_matches_brute_force_rotation(self):
        """Assemble U^T H U on a grid and read the element directly."""
        p = ModelParams(0.0, 11.0, 24.0, 0.35, 0.28, 40)
        n, m = 40, 29
        half, npts = 16.0, 700
        dx = 2 * half / (npts - 1)
        y = -half + dx * np.arange(npts)
        osc = _sinc_kinetic(npts, dx) + np.diag(0.5 * y * y)
        blocks = trilevel.level_matrix(p, y)
        h = np.zeros((3 * npts, 3 * npts))
        for a in range(3):
            for b in range(3):
                blk = np.diag(blocks[:, a, b])
                if a == b:
                    blk = blk + osc
                h[a * npts:(a + 1) * npts, b * npts:(b + 1) * npts] = blk
        _, basis = trilevel._chained_bases(p, y)
        rot = np.zeros_like(h)
        for a in range(3):
            for b in range(3):
                rot[a * npts:(a + 1) * npts, b * npts:(b + 1) * npts] = \
                    np.diag(basis[:, a, b])
        rotated = rot.T @ h @ rot

        phi = eigenfunction_rows(y, [n, m]) * math.sqrt(dx)
        bra = np.zeros(3 * npts)
        bra[:npts] = phi[0]
        ket = np.zeros(3 * npts)
        ket[npts:2 * npts] = phi[1]
        full = bra @ rotated @ ket
        # remove the quadratic-remainder cross term, leaving the V part
        g = coupling._coupling_batch(p, y)
        w12 = 0.5 * np.sum(phi[0] * g[:, 0, 2] * g[:, 1, 2] * phi[1])
        expected = full - w12
        mine = v_matrix_element(p, 1, 2, n, m)
        assert mine == pytest.approx(expected, rel=1e-6)

    def test_h0_states_element_matches_grid(self):
        """Distorted-wave element against an explicit grid solution."""
        n0 = 600
        g1 = 0.3513
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, g1, 0.3 * g1, n0)
        nb, dn = 601, 15
        kmax = math.sqrt(2 * (24 + nb + 40))
        dx = math.pi / (1.25 * kmax)
        half = math.sqrt(2 * (nb + 40)) + 10
        npts = int(2 * half / dx) + 1
        y = (np.arange(npts) - (npts - 1) / 2.0) * dx
        curves = trilevel.eigenvalues_at(p, y)
        kin = _sinc_kinetic(npts, dx)

        def well_state(level, count):
            h = kin + np.diag(curves[:, level - 1] + 0.5 * y * y)
            vals, vecs = scipy.linalg.eigh(h, subset_by_index=[count - 1, count + 1])
            for i in range(vals.size):
                if _count_nodes(vecs[:, i]) == count:
                    return vecs[:, i]
            raise AssertionError("node count failed")

        u1 = well_state(1, nb)
        u2 = well_state(2, nb - dn)
        g = coupling._coupling_batch(p, y)
        f12 = g[:, 0, 1]
        idx = np.arange(npts)
        diff = idx[:, None] - idx[None, :]
        with np.errstate(divide="ignore"):
            deriv = np.where(diff == 0, 0.0, (-1.0) ** diff / (diff * dx))
        expected = -0.5 * (u1 @ (deriv @ (f12 * u2)) + u1 @ (f12 * (deriv @ u2)))
        mine = v_matrix_element_h0(p, 1, 2, nb, nb - dn)
        assert abs(mine) == pytest.approx(abs(expected), rel=2e-3)

    @pytest.mark.parametrize("n", [60, 10**8])
    def test_parity_selection(self, n):
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.4, 0.3, n)
        for j, k, dm in ((1, 2, 2), (2, 3, 4), (1, 3, 3)):
            elem = v_matrix_element_h0(p, j, k, n, n - dm)
            allowed = v_matrix_element_h0(p, j, k, n, n - dm - 1)
            assert abs(elem) <= 1e-10 * max(abs(allowed), 1.0)

    def test_far_multiphoton_elements_need_distorted_states(self):
        # the bare-oscillator element underestimates by a large factor
        n0 = 10**8
        g1 = 0.3513
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, g1, 0.3 * g1, n0)
        nb = n0 + 1
        distorted = abs(v_matrix_element_h0(p, 1, 2, nb, nb - 15))
        bare = abs(v_matrix_element(p, 1, 2, nb, nb - 15))
        assert distorted > 10 * bare



def h0_window(params, level, nq, n, m, pad):
    """Window of an element, the rotated single-level operator on it, and its target.

    The operator is built in the Fock basis, independently of
    ``_rotated_operator``, and rotated into the window's DVR, where
    ``_window_h0_state`` works; the target is its Fock-basis diagonal at
    ``nq``, the Rayleigh quotient ``_window_h0_state`` shifts at.
    """
    window = coupling._window(n, m, pad)
    lo, nodes, q, _ = window
    h0 = (q * trilevel.eigenvalues_at(params, nodes)[:, level - 1]) @ q.T
    h0 += np.diag((lo + np.arange(nodes.size)) - float(nq))
    return window, q.T @ h0 @ q, h0[nq - lo, nq - lo]


class TestRotatedFrameStates:
    @settings(max_examples=30, deadline=None)
    @given(n0=st.one_of(st.integers(200, 800), st.just(10**8)),
           level=st.sampled_from([1, 2]), dn=st.integers(5, 12).map(lambda i: 2 * i + 1),
           g1=st.floats(0.05, 0.5), ratio=st.floats(0.05, 0.5))
    def test_matches_dense_nearest_eigenpair(self, n0, level, dn, g1, ratio):
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, g1, ratio * g1, n0)
        n = central_quantum(1, n0)
        nq = n if level == 1 else n - dn
        window, h0, target = h0_window(p, level, nq, n, n - dn, 4 * dn + 96)
        vals, vecs = np.linalg.eigh(h0)
        near = int(np.argmin(np.abs(vals - target)))
        vec = coupling._window_h0_state(p, level, nq, *window)
        assert vec @ h0 @ vec == pytest.approx(vals[near], rel=0.0, abs=1e-10)
        assert abs(vec @ vecs[:, near]) >= 1.0 - 1e-10

    def test_no_level_near_target_raises(self):
        # at strong coupling and small n the first-order rung of level 3 at
        # n = 18 misses every rung by 0.633, on the window of the element
        # (2, 20) <-> (3, 18)
        p = random_params(np.random.default_rng(60))
        window, h0, target = h0_window(p, 3, 18, 20, 18, 104)
        assert np.min(np.abs(np.linalg.eigvalsh(h0) - target)) >= 0.45
        with pytest.raises(ConvergenceError, match="no rotated-frame level within 0.45"):
            coupling._window_h0_state(p, 3, 18, *window)

    def test_unsettled_iteration_raises(self, monkeypatch):
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.3513, 0.3 * 0.3513, 600)
        window = coupling._window(601, 586, 156)
        solve = coupling.lu_solve
        # a solve that keeps mixing in a neighbouring state never settles
        monkeypatch.setattr(coupling, "lu_solve",
                            lambda lu, b: solve(lu, b) + 1e-3 * np.roll(b, 1))
        with pytest.raises(ConvergenceError, match="did not settle"):
            coupling._window_h0_state(p, 2, 586, *window)


def vacuum_window_level(params, j, n):
    """Rung ``n`` of level ``j`` on the window anchored at the vacuum.

    Its Fock states start at 0, so the n-th eigenvalue of the rotated
    single-level problem is rung n without any choice of index.
    """
    lo, nodes, _, num = coupling._window(0, n, n + 400)
    op = coupling._rotated_operator(params, j, n, lo, nodes, num)
    return scipy.linalg.eigvalsh(op, subset_by_index=[n, n])[0]


class TestWindowLevelOracle:
    @pytest.mark.parametrize("g1, g2, n, j", [
        (1.0, 1.25, 50, 3), (1.25, 1.0, 50, 2), (1.5, 1.5, 20, 3)])
    def test_matches_vacuum_window_at_strong_coupling(self, g1, g2, n, j):
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, g1, g2, n)
        assert h0_level_fd(p, j, n) == pytest.approx(vacuum_window_level(p, j, n),
                                                      rel=0.0, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 200), j=st.sampled_from([1, 2, 3]))
    # draws where a single doubling that passed still left the value unsettled
    @example(seed=0, n=1, j=1)
    @example(seed=0, n=85, j=2)
    @example(seed=6615798, n=90, j=3)
    def test_matches_vacuum_window_or_raises(self, seed, n, j):
        p = random_params(np.random.default_rng(seed))
        try:
            value = h0_level_fd(p, j, n)
        except ConvergenceError:
            return
        assert value == pytest.approx(vacuum_window_level(p, j, n), rel=0.0, abs=1e-9)

    def test_unsettled_window_raises(self, monkeypatch):
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.5, 0.5, 100)
        rotated = coupling._rotated_operator

        def drifting(params, level, nq, lo, nodes, num):
            # a shift that grows with the window keeps the level moving as it doubles
            shift = 1e-3 * nodes.size * np.eye(nodes.size)
            return rotated(params, level, nq, lo, nodes, num) + shift

        monkeypatch.setattr(coupling, "_rotated_operator", drifting)
        with pytest.raises(ConvergenceError, match="not stable under window refinement"):
            h0_level_fd(p, 1, 100)


class TestRefine:
    """The window-doubling loop behind every element and ``h0_level_fd``."""

    @staticmethod
    def sequence(values):
        """An ``evaluate`` that returns ``values`` in turn (scale 1), and the sizes asked."""
        sizes = []

        def evaluate(size):
            sizes.append(size)
            return values[len(sizes) - 1], 1.0

        return evaluate, sizes

    def test_a_lone_pass_before_a_jump_is_not_settled(self):
        # 1 -> 2 jumps, 2 -> 2 passes once, 2 -> 3 jumps, then two passes in a row
        evaluate, sizes = self.sequence([1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        assert coupling._refine(evaluate, 8, "x", doublings=5, settled=2) == 3.0
        assert sizes == [8, 16, 32, 64, 128, 256]

    def test_one_pass_settles_by_default(self):
        evaluate, sizes = self.sequence([1.0, 2.0, 2.0, 3.0])
        assert coupling._refine(evaluate, 8, "x") == 2.0
        assert sizes == [8, 16, 32]

    def test_unsettled_value_names_what_and_the_last_change(self):
        evaluate, sizes = self.sequence([1.0, 2.0, 2.0, 3.5])
        with pytest.raises(ConvergenceError, match=r"^level x at n=3 not stable under window "
                                                   r"refinement; last change 1\.500e\+00$"):
            coupling._refine(evaluate, 8, "level x at n=3", settled=2)
        assert sizes == [8, 16, 32, 64]
