import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.testing import assert_allclose
from scipy.special import eval_hermite, gammaln

from triladder.coupling import ladder_rows, position_offdiagonal

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


def test_window_operators_satisfy_commutator():
    lo, hi = 200, 260
    dim = hi - lo + 1
    off = position_offdiagonal(lo, hi)
    y = np.zeros((dim, dim))
    idx = np.arange(dim - 1)
    y[idx, idx + 1] = off
    y[idx + 1, idx] = off
    assert_allclose(ladder_rows(lo, np.eye(dim), 1.0), y, atol=0.0)
    d = ladder_rows(lo, np.eye(dim), -1.0)
    comm = d @ y - y @ d
    interior = comm[5:-5, 5:-5]
    assert_allclose(interior, np.eye(dim - 10), atol=1e-12)
    assert_allclose(d, -d.T, atol=0.0)


def test_ladder_rows_match_dense_products(rng):
    lo, dim = 200, 61
    mat = rng.normal(size=(dim, dim))
    for sign in (-1.0, 1.0):
        dense = ladder_rows(lo, np.eye(dim), sign)
        assert_allclose(ladder_rows(lo, mat, sign), dense @ mat, rtol=1e-13, atol=1e-12)
