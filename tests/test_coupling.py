import math

import numpy as np
import pytest
import scipy.linalg

from triladder import (ModelParams, coupling_matrix, v_matrix_element,
                       v_matrix_element_h0)
from triladder.oscillator import eigenfunction_rows
import triladder.coupling as coupling
import triladder.trilevel as trilevel
from triladder.dressed import _sinc_kinetic

from conftest import random_params


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

    def test_central_difference_order_two(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.7, 0.4, 100)
        y = 1.3
        _, base = trilevel._eigensystem(p, [y])

        def raw(h):
            _, plus = trilevel._eigensystem(p, [y + h], reference=base)
            _, minus = trilevel._eigensystem(p, [y - h], reference=base)
            return (np.einsum("nij,nik->njk", base, plus - minus) / (2 * h))[0]

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
            v_matrix_element(p, 1, 1, 10, 9, "hermite-quadrature")
        with pytest.raises(ValueError):
            v_matrix_element(p, 1, 2, -1, 9, "hermite-quadrature")
        with pytest.raises(ValueError):
            v_matrix_element(p, 1, 2, 10, 9, "nonsense")
        with pytest.raises(ValueError):
            v_matrix_element(p, 1, 2, 6000, 9, "hermite-quadrature")
        for j, k, n in ((2, 2, 10), (0, 2, 10), (1, 2, -1)):
            with pytest.raises(ValueError):
                v_matrix_element_h0(p, j, k, n, 9)

    def test_decoupled_level_gives_zero(self):
        n = 500
        p = ModelParams(0.0, 11.0, 24.0, 0.0, 0.2, n)
        elem = v_matrix_element(p, 1, 2, n, n - 11, "hermite-quadrature")
        assert elem == 0.0

    def test_parity_selection(self):
        n = 200
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.5, 0.3, n)
        allowed = abs(v_matrix_element(p, 1, 2, n, n - 11, "hermite-quadrature"))
        for j, k, dm in ((1, 2, 2), (1, 2, 10), (2, 3, 4), (1, 3, 3)):
            elem = v_matrix_element(p, j, k, n, n - dm, "hermite-quadrature")
            assert abs(elem) <= 1e-10 * max(allowed, 1.0)

    def test_hermitian_pairing(self):
        n = 300
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.5, 0.3, n)
        for j, k, m in ((1, 2, n - 11), (2, 3, n - 13), (1, 3, n - 12)):
            a = v_matrix_element(p, j, k, n, m, "hermite-quadrature")
            b = v_matrix_element(p, k, j, m, n, "hermite-quadrature")
            assert a == pytest.approx(b, rel=1e-8, abs=1e-15)

    def test_methods_agree(self):
        n = 500
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.5, 0.15, n)
        for dn in (11, 13):
            eh = v_matrix_element(p, 1, 2, n, n - dn, "hermite-quadrature")
            ef = v_matrix_element(p, 1, 2, n, n - dn, "fock-window")
            assert eh == pytest.approx(ef, rel=1e-6)

    def test_multiphoton_suppression_at_fixed_couplings(self):
        n0 = 10**8
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.6, 0.18, n0)
        mags = [abs(v_matrix_element(p, 1, 2, n0, n0 - dn, "fock-window"))
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
        mine = v_matrix_element(p, 1, 2, n, m, "hermite-quadrature")
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
            from triladder.dressed import _count_nodes
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

    def test_far_multiphoton_elements_need_distorted_states(self):
        # the bare-oscillator element underestimates by a large factor
        n0 = 10**8
        g1 = 0.3513
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, g1, 0.3 * g1, n0)
        nb = n0 + 1
        distorted = abs(v_matrix_element_h0(p, 1, 2, nb, nb - 15))
        bare = abs(v_matrix_element(p, 1, 2, nb, nb - 15, "fock-window"))
        assert distorted > 10 * bare

