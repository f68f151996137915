import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from triladder import (DegenerateLevelsError, ModelParams, TrackingError, eigenvalues_at,
                       level_matrix)
from triladder.trilevel import _chained_bases, _cubic_terms

from conftest import random_params


def characteristic_residual(params, y, energy):
    """Value of the cubic characteristic polynomial at ``energy``.

    Zero (to roundoff) exactly when ``energy`` is an eigenvalue of the
    three-level matrix at coordinate ``y``.
    """
    y = np.asarray(y, dtype=float)
    e = np.asarray(energy, dtype=float)
    uy2 = 2.0 * (params.u * y) ** 2
    vy2 = 2.0 * (params.v * y) ** 2
    return ((params.e1 - e) * (params.e2 - e) * (params.e3 - e)
            - (params.e1 - e) * vy2 - (params.e3 - e) * uy2)


def eigensystem_at(params, y):
    """Levels and sign-fixed basis at one coordinate."""
    levels, bases = _chained_bases(params, [y])
    return levels[0], bases[0]


def jacobi_eigenvalues(mats, sweeps=24):
    """Cyclic Jacobi rotations on a batch of symmetric 3x3 matrices.

    Independent of the closed-form route; self-checks that the off-diagonal
    mass actually vanished.
    """
    a = np.array(mats, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        for p, q in ((0, 1), (0, 2), (1, 2)):
            theta = 0.5 * np.arctan2(2.0 * a[:, p, q], a[:, q, q] - a[:, p, p])
            c, s = np.cos(theta), np.sin(theta)
            rot = np.tile(np.eye(3), (n, 1, 1))
            rot[:, p, p] = c
            rot[:, q, q] = c
            rot[:, p, q] = s
            rot[:, q, p] = -s
            a = np.einsum("nji,njk,nkl->nil", rot, a, rot)
    off = max(np.abs(a[:, 0, 1]).max(), np.abs(a[:, 0, 2]).max(),
              np.abs(a[:, 1, 2]).max())
    scale = np.abs(a).max()
    assert off <= 1e-11 * max(scale, 1.0), "rotation sweep did not converge"
    return np.sort(np.stack([a[:, 0, 0], a[:, 1, 1], a[:, 2, 2]], axis=-1), axis=-1)


valid_params = st.builds(
    lambda e1, d12, d23, u, v: ModelParams(e1, e1 + d12, e1 + d12 + d23, u, v, 100),
    st.floats(-5, 5), st.floats(0.5, 15), st.floats(0.5, 15),
    st.floats(0, 1.5), st.floats(0, 1.5))


class TestCubicCoefficients:
    def test_zero_coupling_reference_values(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 100)
        alpha, beta, mean = _cubic_terms(p, 0.37)
        assert mean == pytest.approx(35.0 / 3.0, rel=1e-15)
        assert_allclose(alpha, 433.0 / 3.0, rtol=1e-14)
        assert_allclose(beta, 2590.0 / 27.0, rtol=1e-13)
        # every offset root of the diagonal problem satisfies the depressed cubic
        for e in (0.0, 11.0, 24.0):
            eps = e - 35.0 / 3.0
            assert_allclose(eps**3 - alpha * eps, beta, rtol=1e-12)

    def test_roots_solve_characteristic_polynomial(self, rng):
        for _ in range(300):
            p = random_params(rng)
            y = rng.uniform(-5, 5)
            roots = eigenvalues_at(p, y)
            resid = characteristic_residual(p, y, roots)
            bound = 1e-10 * np.maximum(1.0, np.abs(roots) ** 3)
            assert np.all(np.abs(resid) <= bound)


class TestEigenvalues:
    def test_zero_coordinate_returns_bare_levels(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.9, 0.4, 100)
        assert_allclose(eigenvalues_at(p, 0.0), [0.0, 11.0, 24.0], atol=1e-12)

    def test_two_level_factorization(self):
        # with the upper coupling off, the third level is a spectator and the
        # lower block solves in closed form: 3 +- sqrt(9 + 2 (u y)^2)
        p = ModelParams(0.0, 6.0, 24.0, 1.0, 0.0, 100)
        y = 2.0 * math.sqrt(2.0)
        assert_allclose(eigenvalues_at(p, y), [-2.0, 8.0, 24.0], atol=1e-12)

    def test_agrees_with_jacobi_rotations(self, rng):
        mats, expected = [], []
        for _ in range(2000):
            p = random_params(rng)
            y = rng.uniform(-5, 5)
            mats.append(level_matrix(p, y))
            expected.append(eigenvalues_at(p, y))
        expected = np.array(expected)
        oracle = jacobi_eigenvalues(np.array(mats))
        assert np.all(np.abs(oracle - expected)
                      <= 1e-10 * np.maximum(1.0, np.abs(oracle)))

    def test_trace_is_coordinate_independent(self, rng):
        for _ in range(100):
            p = random_params(rng)
            y = rng.uniform(-6, 6, size=13)
            total = eigenvalues_at(p, y).sum(axis=-1)
            assert_allclose(total, p.e1 + p.e2 + p.e3,
                            rtol=1e-10, atol=1e-10)

    def test_even_in_coordinate(self, rng):
        for _ in range(100):
            p = random_params(rng)
            y = rng.uniform(0, 6, size=13)
            assert np.max(np.abs(eigenvalues_at(p, y) - eigenvalues_at(p, -y))) <= 1e-12

    def test_outer_gap_grows_with_coordinate(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.7, 0.5, 100)
        y = np.linspace(0.0, 2.0, 41)
        levels = eigenvalues_at(p, y)
        outer = levels[:, 2] - levels[:, 0]
        assert np.all(np.diff(outer) >= -1e-12)

    def test_decoupled_top_level_is_flat(self):
        p = ModelParams(0.0, 6.0, 24.0, 0.8, 0.0, 100)
        y = np.linspace(-3.0, 3.0, 31)
        top = eigenvalues_at(p, y)[:, 2]
        assert_allclose(top, 24.0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(valid_params, st.floats(-6, 6))
def test_adiabatic_point_invariants(params, y):
    try:
        levels, basis = eigensystem_at(params, y)
    except DegenerateLevelsError:
        return
    assert np.max(np.abs(basis.T @ basis - np.eye(3))) <= 1e-12
    assert np.linalg.det(basis) == pytest.approx(1.0, abs=1e-10)
    resid = characteristic_residual(params, y, levels)
    assert np.all(np.abs(resid) <= 1e-10 * np.maximum(1.0, np.abs(levels) ** 3))
    assert np.all(np.diff(levels) >= 0)


@settings(max_examples=60, deadline=None)
@given(valid_params, st.floats(-6, 6), st.floats(0.5, 12), st.integers(200, 600))
def test_chain_gauge(params, lo, span, points):
    # one gauge along a dense ascending grid, set at the point nearest y = 0
    y = lo + span * np.linspace(0.0, 1.0, points)
    try:
        _, bases = _chained_bases(params, y)
    except (DegenerateLevelsError, TrackingError):
        return
    gram = np.einsum("nki,nkj->nij", bases, bases)
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-10
    assert np.max(np.abs(np.linalg.det(bases) - 1.0)) <= 1e-10
    assert np.all(np.einsum("nij,nij->nj", bases[1:], bases[:-1]) > 0)
    a = int(np.argmin(np.abs(y)))
    dominant = bases[a][np.argmax(np.abs(bases[a]), axis=0), np.arange(3)]
    # every largest component positive, unless det = +1 needed the least
    # certain one (smallest in magnitude) flipped back
    negative = np.flatnonzero(dominant < 0)
    assert negative.size == 0 or list(negative) == [np.argmin(np.abs(dominant))]
    assert np.array_equal(_chained_bases(params, y[a:a + 1])[1][0], bases[a])


class TestEigenbasis:
    def test_identity_at_zero_coordinate(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.9, 0.4, 100)
        _, basis = eigensystem_at(p, 0.0)
        assert_allclose(basis, np.eye(3), atol=1e-12)

    def test_two_level_mixing_angle(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.8, 0.0, 100)
        y = 1.3
        _, basis = eigensystem_at(p, y)
        phi = 0.5 * math.atan(2.0 * math.sqrt(2.0) * 0.8 * y / 11.0)
        assert_allclose(basis[:, 2], [0.0, 0.0, 1.0], atol=1e-12)
        expected = np.array([[math.cos(phi), math.sin(phi)],
                             [-math.sin(phi), math.cos(phi)]])
        assert_allclose(basis[:2, :2], expected, atol=1e-10)

    def test_diagonalizes_the_level_matrix(self, rng):
        # small-n0 points near the origin, then n0 = 1e8 couplings at |y| up
        # to 1.5e4, the range of the DVR nodes in an element window
        cases = [(random_params(rng), rng.uniform(-4, 4)) for _ in range(50)]
        for _ in range(50):
            p = random_params(rng, n0=10**8, max_coupling=0.0)
            cases.append((p.with_couplings(*rng.uniform(0.0, 1.1, 2)),
                          rng.uniform(-1.5e4, 1.5e4)))
        for p, y in cases:
            try:
                levels, basis = eigensystem_at(p, y)
            except DegenerateLevelsError:
                continue
            m = basis.T @ level_matrix(p, y) @ basis
            off = m - np.diag(np.diag(m))
            assert np.max(np.abs(off)) <= 1e-9
            assert_allclose(np.diag(m), levels, rtol=1e-9, atol=1e-9)

    def test_reference_fixes_column_signs(self):
        # each point of a chain takes its column signs from its predecessor
        p = ModelParams(0.0, 11.0, 24.0, 0.8, 0.5, 100)
        _, (a, b) = _chained_bases(p, [1.0, 1.0 + 1e-5])
        overlaps = np.einsum("ij,ij->j", a, b)
        assert np.all(overlaps > 0.999)

    def test_non_finite_coordinate_is_refused(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.9, 0.4, 100)
        for y in (np.nan, np.inf):
            with pytest.raises(DegenerateLevelsError), np.errstate(invalid="ignore"):
                _chained_bases(p, [1.0, y])

    def test_exact_degeneracy_is_refused(self):
        # a decoupled level crossing the lower block: gap vanishes at y = 2 sqrt(2)
        p = ModelParams(0.0, 6.0, 8.0, 1.0, 0.0, 100)
        with pytest.raises(DegenerateLevelsError):
            eigensystem_at(p, 2.0 * math.sqrt(2.0))


class TestModelParams:
    def test_rejects_unordered_levels(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 24.0, 11.0, 0.1, 0.1, 100)

    def test_rejects_tiny_gap(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 1e-9, 24.0, 0.1, 0.1, 100)

    def test_rejects_negative_couplings(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 11.0, 24.0, -0.1, 0.1, 100)

    def test_rejects_bad_quantum_number(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 11.0, 24.0, 0.1, 0.1, 0)

    def test_dimensionless_round_trip(self):
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.5, 0.3, 10**8)
        assert p.g1 == pytest.approx(0.5, rel=1e-14)
        assert p.g2 == pytest.approx(0.3, rel=1e-14)
        q = p.with_couplings(0.7, 0.9)
        assert q.g1 == pytest.approx(0.7, rel=1e-14)
        assert q.g2 == pytest.approx(0.9, rel=1e-14)
        assert (q.e1, q.e2, q.e3, q.n0) == (0.0, 11.0, 24.0, 10**8)
