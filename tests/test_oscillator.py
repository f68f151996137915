import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.testing import assert_allclose
from scipy.special import eval_hermite, gammaln

from triladder.coupling import _window, position_offdiagonal

from conftest import derivative_from_rows, eigenfunction_rows, product_quadrature


def reference_eigenfunction(n, y):
    """Direct formula, usable while the factorials stay in range."""
    log_norm = -0.5 * (n * np.log(2.0) + gammaln(n + 1)) - 0.25 * np.log(np.pi)
    return eval_hermite(n, y) * np.exp(log_norm - 0.5 * y * y)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 80])
def test_matches_direct_formula(n):
    y = np.linspace(-8.0, 8.0, 33)
    got = eigenfunction_rows(y, [n])[0]
    assert_allclose(got, reference_eigenfunction(n, y), atol=1e-13, rtol=1e-11)


def test_far_tail_underflows_to_zero_without_noise():
    y = np.array([-60.0, 55.0, 70.0])
    rows = eigenfunction_rows(y, [0, 10])
    assert np.all(rows == 0.0)


def test_quadrature_matches_gauss_hermite():
    y, w = product_quadrature(80)
    yg, wg = hermgauss(80)
    assert_allclose(y, yg, atol=1e-13)
    assert_allclose(w * np.exp(-y * y), wg, atol=1e-15)


def test_quadrature_normalizes_high_states():
    order = 2 * 5000 + 64
    y, w = product_quadrature(order)
    rows = eigenfunction_rows(y, [4999, 5000])
    assert np.sum(w * rows[1] ** 2) == pytest.approx(1.0, abs=1e-10)
    assert abs(np.sum(w * rows[0] * rows[1])) < 1e-10


def test_quadrature_second_moment():
    n = 500
    y, w = product_quadrature(2 * n + 64)
    phi = eigenfunction_rows(y, [n])[0]
    assert np.sum(w * phi * y * y * phi) == pytest.approx(n + 0.5, rel=1e-12)


def test_ladder_derivative_matches_finite_difference():
    n = 500
    y = np.linspace(-30.0, 30.0, 101)
    rows = eigenfunction_rows(y, [n - 1, n, n + 1])
    ladder = derivative_from_rows(n, rows[0], rows[2])
    h = 1e-6
    central = (eigenfunction_rows(y + h, [n])[0]
               - eigenfunction_rows(y - h, [n])[0]) / (2 * h)
    assert_allclose(ladder, central, atol=2e-7)


@pytest.mark.parametrize("lo", [0, 10**8 - 300])
def test_dvr_derivative_is_commutator_with_number_operator(lo):
    # d/dy = [y, N] on a Fock window; in its DVR, (x_a - x_b) num_ab
    pad = 100
    start, nodes, q, num = _window(lo + pad, lo + pad, pad)
    assert start == lo
    off = position_offdiagonal(lo, lo + nodes.size - 1)
    idx = np.arange(nodes.size - 1)
    d = np.zeros((nodes.size, nodes.size))
    d[idx, idx + 1] = off
    d[idx + 1, idx] = -off
    dvr = q @ (np.subtract.outer(nodes, nodes) * num) @ q.T
    assert np.max(np.abs(dvr - d)) <= 1e-10 * np.max(np.abs(d))
