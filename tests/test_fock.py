import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse.linalg
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from triladder import (ConvergenceError, ModelParams, anticrossing_gap,
                       build_hamiltonian, eigen_near, exact_dressed_levels,
                       TrackingError, resonance_sharpness_map, track_levels, wkb_levels)
from triladder import fock
from triladder.fock import _shift_invert_near, central_quantum


def dense_full_basis(params, nmax):
    """Independent assembly on the untruncated basis 0..nmax, no blocking."""
    size = nmax + 1
    ladder = np.diag(np.sqrt(np.arange(1.0, size)), 1)
    x = ladder + ladder.T
    pair12 = np.zeros((3, 3))
    pair12[0, 1] = pair12[1, 0] = 1.0
    pair23 = np.zeros((3, 3))
    pair23[1, 2] = pair23[2, 1] = 1.0
    return (np.kron(np.diag([params.e1, params.e2, params.e3]), np.eye(size))
            + np.kron(np.eye(3), np.diag(np.arange(size, dtype=float)))
            + params.u * np.kron(pair12, x) + params.v * np.kron(pair23, x))


def sector_eigenvalues(h):
    """Eigenvalues of one sector, measured from n0 like every fock energy."""
    return np.sort(scipy.linalg.eig_banded(h.bands, lower=True, eigvals_only=True))


class TestBuild:
    def test_diagonal_when_uncoupled(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 50)
        h = build_hamiltonian(p, 50, 50, "even")
        evals = np.array([p.e1, p.e2, p.e3])
        expected = evals[h.labels[:, 0] - 1] + (h.labels[:, 1] - h.n0)
        assert_allclose(np.sort(sector_eigenvalues(h)), np.sort(expected), atol=1e-12)
        assert np.all(np.abs(h.bands[1:]) == 0.0)

    def test_labels_respect_parity(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 60)
        sizes = 0
        for parity, bit in (("even", 0), ("odd", 1)):
            labels = build_hamiltonian(p, 60, 20, parity).labels
            assert np.all((labels[:, 0] + labels[:, 1]) % 2 == bit)
            sizes += labels.shape[0]
        assert sizes == 3 * 41

    def test_coupling_matrix_elements(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.37, 0.21, 50)
        h = build_hamiltonian(p, 50, 20, "even")
        dense = h.dense()
        i = h.index_of(1, 41)
        j = h.index_of(2, 40)
        assert dense[j, i] == pytest.approx(0.37 * np.sqrt(41.0), rel=1e-15)
        i = h.index_of(2, 40)
        j = h.index_of(1, 41)
        assert dense[j, i] == pytest.approx(0.37 * np.sqrt(41.0), rel=1e-15)
        i = h.index_of(2, 40)
        j = h.index_of(3, 41)
        assert dense[j, i] == pytest.approx(0.21 * np.sqrt(41.0), rel=1e-15)
        assert dense[h.index_of(2, 40), h.index_of(2, 40)] == pytest.approx(1.0)
        assert_allclose(dense, dense.T, atol=0.0)

    def test_labels_read_only(self):
        # the sector structure is cached and shared by every assembly
        p = ModelParams(0.0, 11.0, 24.0, 0.1, 0.1, 60)
        h = build_hamiltonian(p, 60, 20, "odd")
        with pytest.raises(ValueError):
            h.labels[0, 0] = 2
        with pytest.raises(ValueError):
            build_hamiltonian(p.with_couplings(0.2, 0.0), 60, 20, "odd").labels[0, 1] = 0

    def test_window_bounds_checked(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.1, 0.1, 10)
        with pytest.raises(ValueError):
            build_hamiltonian(p, 10, 12, "even")
        with pytest.raises(ValueError):
            build_hamiltonian(p, 100, 4, "even")
        with pytest.raises(ValueError):
            build_hamiltonian(p, 100, 20, "sideways")

    def test_full_basis_window_matches_dense_assembly(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.07, 0.05, 20)
        reference = np.linalg.eigvalsh(dense_full_basis(p, 40)) - 20
        both = np.sort(np.concatenate([
            sector_eigenvalues(build_hamiltonian(p, 20, 20, "even")),
            sector_eigenvalues(build_hamiltonian(p, 20, 20, "odd"))]))
        assert_allclose(both, reference, atol=1e-10)


class TestEigenNear:
    def test_uncoupled_basis_state(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 50)
        h = build_hamiltonian(p, 50, 30, "even")
        vals, vecs = eigen_near(h, 11.0, 1)
        assert vals[0] == pytest.approx(11.0, abs=1e-12)
        assert np.max(np.abs(vecs[:, 0])) == pytest.approx(1.0)

    def test_matches_dense_oracle(self, rng):
        p = ModelParams(0.0, 9.0, 21.0, 0.4, 0.3, 40)
        h = build_hamiltonian(p, 40, 30, "odd")
        reference = np.linalg.eigvalsh(h.dense())
        target = 9.0
        vals, vecs = eigen_near(h, target, 5)
        nearest = reference[np.argsort(np.abs(reference - target))[:5]]
        assert_allclose(np.sort(vals), np.sort(nearest), atol=1e-10)
        resid = h.matvec(vecs) - vals * vecs
        assert np.max(np.abs(resid)) < 1e-9 * h.norm_estimate()

    def test_rejects_silly_count(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 50)
        h = build_hamiltonian(p, 50, 10, "even")
        for count in (0, h.dim):
            with pytest.raises(ValueError):
                eigen_near(h, 50.0, count)

    def test_solver_failure_raises(self, ladder, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        h = build_hamiltonian(ladder.with_couplings(0.3, 0.1), 10**8, 40, "even")
        with pytest.raises(ConvergenceError):
            eigen_near(h, 1.0, 3)
        with pytest.raises(ConvergenceError):
            track_levels(ladder, (0.0, 0.0), (0.3, 0.1), 3, 10**8, 40,
                         [(1, 10**8 + 1), (2, 10**8)])


coupling = st.one_of(st.just((0.0, 0.0)),
                     st.tuples(st.floats(1e-4, 1.0), st.floats(1e-4, 1.0)))


@settings(max_examples=150, deadline=None)
@given(n0=st.integers(60, 400), half_width=st.integers(20, 50),
       parity=st.sampled_from(["even", "odd"]), g=coupling,
       count=st.integers(1, 9), offset=st.floats(-20.0, 40.0))
def test_eigen_near_matches_dense_nearest(n0, half_width, parity, g, count, offset):
    p = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, n0).with_couplings(*g)
    h = build_hamiltonian(p, n0, half_width, parity)
    reference = np.linalg.eigvalsh(h.dense())
    distance = np.abs(reference - offset)
    order = np.argsort(distance)
    assume(distance[order[count]] - distance[order[count - 1]] > 1e-6)
    nearest = reference[order[:count]]
    vals, _ = eigen_near(h, offset, count)
    assert_allclose(np.sort(vals), np.sort(nearest), rtol=0, atol=1e-9)


# one coupling zero splits H into blocks, and the seeds then lie in one of them
some_zero = st.one_of(coupling,
                      st.tuples(st.just(0.0), st.floats(1e-4, 1.0)),
                      st.tuples(st.floats(1e-4, 1.0), st.just(0.0)))


@settings(max_examples=150, deadline=None)
@given(n0=st.integers(60, 400), half_width=st.integers(20, 50),
       parity=st.sampled_from(["even", "odd"]), g=some_zero,
       tracked=st.integers(1, 2), offset=st.floats(-20.0, 40.0))
def test_seeded_solve_near_matches_dense_nearest(n0, half_width, parity, g, tracked,
                                                 offset):
    p = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, n0).with_couplings(*g)
    h = build_hamiltonian(p, n0, half_width, parity)
    reference, states = np.linalg.eigh(h.dense())
    # seed with the eigenvectors nearest the offset, as a sweep holds them
    held = np.sort(np.argsort(np.abs(reference - offset), kind="stable")[:tracked])
    assume(np.ptp(reference[held]) <= 3.0)   # one target group
    distance = np.abs(reference - (np.mean(reference[held]) + 1.1e-4))
    order = np.argsort(distance)
    k = 4 + 3 * tracked
    assume(distance[order[k]] - distance[order[k - 1]] > 1e-6)
    vals, _ = _shift_invert_near(h, reference[held], states[:, held])
    assert_allclose(np.sort(vals), np.sort(reference[order[:k]]), rtol=0, atol=1e-9)


class TestTracking:
    def test_zero_length_sweep_keeps_labels(self, ladder):
        which = [(1, 10**8 + 1), (2, 10**8)]
        tr = track_levels(ladder, (0.0, 0.0), (0.0, 0.0), 3, 10**8, 50, which)
        assert_allclose(tr.energies[0], tr.energies[-1])
        assert tr.relabelings == []
        assert_allclose(tr.overlaps, 1.0)

    @pytest.mark.parametrize("steps,end", [(0, (0.0, 0.0)), (-1, (0.1, 0.0)),
                                           (1, (0.1, 0.05))])
    def test_too_few_steps_rejected(self, ladder, steps, end):
        with pytest.raises(ValueError, match="cannot record"):
            track_levels(ladder, (0.0, 0.0), end, steps, 10**8, 50,
                         [(1, 10**8 + 1), (2, 10**8)])

    def test_one_step_records_the_start(self, ladder):
        # the one-point grids of a sharpness map sweep from a point to itself
        tr = track_levels(ladder, (0.0, 0.0), (0.0, 0.0), 1, 10**8, 50, [(1, 10**8 + 1)])
        assert tr.gs.shape == (1, 2) and tr.energies.shape == (1, 1)
        assert tr.energies[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_failure_names_the_point_in_plain_floats(self, ladder, monkeypatch):
        # without step refinement the sweep cannot follow the pair to (0.9,
        # 0.9); the message names the point as floats, not numpy reprs
        monkeypatch.setattr(fock, "_MAX_REFINES", 0)
        nb = central_quantum(1, 10**8)
        with pytest.raises(TrackingError, match=r"near g=\(0\.\d+, 0\.\d+\)$") as info:
            track_levels(ladder, (0.0, 0.0), (0.9, 0.9), 3, 10**8, 40,
                         [(1, nb), (2, nb - 13)])
        assert "np." not in str(info.value)

    def test_mixed_parity_labels_rejected(self, ladder, monkeypatch):
        # the sector is level + n even or odd, one for every tracked label
        assert fock._sector_of([(1, 10**8 + 1), (2, 10**8)]) == "even"
        assert fock._sector_of([(1, 10**8), (2, 10**8 + 1)]) == "odd"
        monkeypatch.setattr(fock, "_shift_invert_near", None)   # before any solve
        with pytest.raises(ValueError, match="share one parity sector"):
            track_levels(ladder, (0.0, 0.0), (0.1, 0.1), 3, 10**8, 50,
                         [(1, 10**8 + 1), (2, 10**8 + 1)])

    def test_every_point_keeps_its_vectors(self, ladder):
        which = [(1, 10**8 + 1), (2, 10**8)]
        tr = track_levels(ladder, (0.0, 0.0), (0.3, 0.1), 4, 10**8, 40, which)
        dim = build_hamiltonian(ladder, 10**8, 40, "even").dim
        assert tr.step_vectors.shape == (4, dim, 2)
        for g, vals, vecs in zip(tr.gs, tr.energies, tr.step_vectors):
            h = build_hamiltonian(ladder.with_couplings(*g), 10**8, 40, "even")
            assert np.max(np.abs(h.matvec(vecs) - vals * vecs)) < 1e-9

    def test_candidate_shortfall_reported_at_the_first_solve(self, ladder, monkeypatch):
        # the candidate count does not depend on the step, so halving it
        # cannot help: the shortfall is reported, not bisected
        calls = []

        def one_candidate(h, *args, **kwargs):
            calls.append(h)
            vals, vecs = _shift_invert_near(h, *args, **kwargs)
            return vals[:1], vecs[:, :1]

        monkeypatch.setattr(fock, "_shift_invert_near", one_candidate)
        with pytest.raises(TrackingError, match="fewer candidates than tracked states"):
            track_levels(ladder, (0.0, 0.0), (0.3, 0.1), 3, 10**8, 64,
                         [(1, 10**8 + 1), (2, 10**8)])
        assert len(calls) == 1

    def test_repeated_label_rejected(self, ladder, monkeypatch):
        monkeypatch.setattr(fock, "_shift_invert_near", None)   # before any solve
        label = (1, 10**8 + 1)
        with pytest.raises(ValueError, match=r"\(1, 100000001\) appears twice"):
            track_levels(ladder, (0.0, 0.0), (0.1, 0.1), 3, 10**8, 50, [label, label])

    def test_energy_order_swap_is_logged(self, ladder):
        # the two states cross (diabatically) at the 13-quantum resonance
        n0 = 10**8
        which = [(1, n0 + 1), (2, n0 + 1 - 13)]
        tr = track_levels(ladder, (0.0, 0.0), (0.30, 0.09), 31, n0, 200, which)
        assert len(tr.relabelings) >= 1
        assert tr.energies.shape == (31, 2)

    def test_energies_in_the_matrix_frame(self, ladder):
        # tracked energies are measured from n0, the frame the window matrix
        # is stored in, so they carry its full precision at n0 = 1e8
        n0 = 10**8
        which = [(1, n0 + 1), (2, n0), (3, n0 + 1)]
        tr = track_levels(ladder, (0.0, 0.0), (0.4, 0.2), 9, n0, 40, which)
        h = build_hamiltonian(ladder.with_couplings(0.4, 0.2), n0, 40, "even")
        reference = np.linalg.eigvalsh(h.dense())
        nearest = np.argmin(np.abs(reference[:, None] - tr.energies[-1]), axis=0)
        assert_allclose(tr.energies[-1], reference[nearest], rtol=0, atol=1e-12)

    def test_exact_dressed_levels_near_orbit_average(self, ladder):
        exact = exact_dressed_levels(ladder, 0.5, 0.5, 400)
        approx = wkb_levels(ladder.with_couplings(0.5, 0.5))
        assert np.max(np.abs(exact - approx)) < 0.1

    def test_exact_dressed_levels_assemble_each_coupling_once(self, ladder, monkeypatch):
        # the truncation bound reuses the sector the sweep solved at its end
        built = []
        build = fock.build_hamiltonian

        def spy_build(params, *args):
            built.append((params.u, params.v))
            return build(params, *args)

        monkeypatch.setattr(fock, "build_hamiltonian", spy_build)
        exact_dressed_levels(ladder, 0.5, 0.5, 400)
        assert len(built) == len(set(built)) == 14

    def test_three_levels_repeat_every_two_quanta(self, ladder):
        # within one parity sector the central spectrum is three curves
        # repeating with a two-quantum offset
        p = ladder.with_couplings(0.5, 0.5)
        h = build_hamiltonian(p, 10**8, 400, "even")
        vals, _ = eigen_near(h, 12.0, 12)
        vals = np.sort(vals)
        lower = vals[(vals >= 10.0) & (vals < 12.0)]
        upper = vals[(vals >= 12.0) & (vals < 14.0)]
        assert lower.size == 3 and upper.size == 3
        assert_allclose(upper - lower, 2.0, atol=1e-6)


class TestTruncationBound:
    def test_bounds_distance_to_wide_window_spectrum(self):
        p = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 60).with_couplings(0.3, 0.2)
        h = build_hamiltonian(p, 60, 10, "even")
        vals, vecs = eigen_near(h, 11.0, 6)
        bound = h.truncation_bound(vals, vecs)
        wide = np.linalg.eigvalsh(build_hamiltonian(p, 60, 60, "even").dense())
        distance = np.min(np.abs(wide[:, None] - vals), axis=0)
        assert np.all(bound > 1e-6)
        assert np.all(distance <= bound)

    def test_narrow_window_levels_raise(self, ladder):
        with pytest.raises(ConvergenceError, match="uncertain"):
            exact_dressed_levels(ladder, 0.88, 1.08, 30)

    def test_narrow_window_gap_raises(self, ladder):
        with pytest.raises(ConvergenceError, match="uncertain"):
            anticrossing_gap(ladder, (1.1, 0.33), 13, (1, 2), 16)


class TestWindowRule:
    """Bound-checked entry points try n0 +- 64, 128, ... up to their half_width."""

    def test_levels_double_the_window_until_the_bound_passes(self, ladder, monkeypatch):
        widths = []
        build = fock.build_hamiltonian

        def spy_build(params, n0, half_width, parity):
            widths.append(half_width)
            return build(params, n0, half_width, parity)

        monkeypatch.setattr(fock, "build_hamiltonian", spy_build)
        levels = exact_dressed_levels(ladder, 1.0, 1.25, 400)
        assert list(dict.fromkeys(widths)) == [64, 128]
        monkeypatch.setattr(fock, "build_hamiltonian", build)
        capped = exact_dressed_levels(ladder, 1.0, 1.25, 128)
        assert np.array_equal(levels, capped)

    def test_benign_gap_accepted_on_the_first_window(self, ladder):
        end, dn = SCAN_LINES["benign-dn13"]
        assert anticrossing_gap(ladder, end, dn, (1, 2), 400).half_width == 64

    def test_failure_below_the_cap_moves_to_the_next_window(self, ladder, monkeypatch):
        end, dn = SCAN_LINES["benign-dn13"]
        with monkeypatch.context() as m:
            m.setattr(fock, "_FIRST_WINDOW", 128)
            wider = anticrossing_gap(ladder, end, dn, (1, 2), 400)

        def lost_at_64(h, *args, **kwargs):
            if h.half_width == 64:
                raise TrackingError("injected at n0 +- 64")
            return _shift_invert_near(h, *args, **kwargs)

        monkeypatch.setattr(fock, "_shift_invert_near", lost_at_64)
        scan = anticrossing_gap(ladder, end, dn, (1, 2), 400)
        assert scan.half_width == wider.half_width == 128
        assert scan.gap == wider.gap and scan.g_star == wider.g_star
        assert scan.minima == wider.minima

    def test_lost_pair_is_refused_on_the_first_window(self, ladder, monkeypatch):
        # on g2 = 1.1 g1 a third level comes nearer to the delta_n 17 pair
        # than its partner at every gap minimum; the bound passes on n0 +- 64,
        # and a wider window would find the same, so none is tried
        widths = []
        build = fock.build_hamiltonian

        def spy_build(params, n0, half_width, parity):
            widths.append(half_width)
            return build(params, n0, half_width, parity)

        monkeypatch.setattr(fock, "build_hamiltonian", spy_build)
        with pytest.raises(TrackingError, match=r"^on the window n0 \+- 64, a third level lies "
                                                r"nearer to the pair than its partner at every "
                                                r"gap minimum .*: not one anticrossing$"):
            anticrossing_gap(ladder, (1.05, 1.1 * 1.05), 17, (1, 2), 400)
        assert set(widths) == {64}

    def test_too_narrow_cap_above_64_names_the_cap(self, ladder):
        with pytest.raises(ConvergenceError, match=r"n0 \+- 80 leaves .* uncertain"):
            exact_dressed_levels(ladder, 1.0, 1.25, 80)

    def test_underflowing_cap_refused_before_any_solve(self, monkeypatch):
        # n0 +- 64 would fit above the vacuum, the cap does not
        monkeypatch.setattr(fock, "_shift_invert_near", None)
        with pytest.raises(ValueError, match="underflows the vacuum"):
            exact_dressed_levels(ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 100), 0.2, 0.2, 400)

    def test_partner_beyond_the_cap_refused_before_any_assembly(self, ladder, monkeypatch):
        # the delta_n 13 partner (2, n0 - 12) lies outside n0 +- 10
        built = []
        monkeypatch.setattr(fock, "build_hamiltonian", lambda *args: built.append(args))
        with pytest.raises(ValueError, match=r"\(2, 99999988\) is not in the even sector "
                                             r"of the window n0 \+- W = 100000000 \+- 10"):
            anticrossing_gap(ladder, (1.1, 0.33), 13, (1, 2), 10)
        assert built == []

    def test_map_widens_until_every_bound_passes(self, ladder, monkeypatch, seed0_map):
        built = []
        build = fock.build_hamiltonian

        def spy_build(params, n0, half_width, parity):
            built.append((half_width, params.u))
            return build(params, n0, half_width, parity)

        monkeypatch.setattr(fock, "build_hamiltonian", spy_build)
        table = resonance_sharpness_map(ladder, (1, 2), *MAP_GRID, 400)
        assert list(dict.fromkeys(w for w, _ in built)) == [64, 128]
        # only the g2 column (g1 = 0) is swept on n0 +- 64
        assert all(u == 0.0 for w, u in built if w == 64)
        assert table.tobytes() == seed0_map.tobytes()

    def test_lost_map_row_keeps_the_window(self, ladder, monkeypatch, seed0_map):
        widths = []
        build, track = fock.build_hamiltonian, fock.track_levels

        def spy_build(params, n0, half_width, parity):
            widths.append(half_width)
            return build(params, n0, half_width, parity)

        def lose_row(template, start, *args, **kwargs):
            if tuple(start) == (0.0, 0.125):
                raise TrackingError("injected on the row g2 = 0.125")
            return track(template, start, *args, **kwargs)

        monkeypatch.setattr(fock, "build_hamiltonian", spy_build)
        monkeypatch.setattr(fock, "track_levels", lose_row)
        table = resonance_sharpness_map(ladder, (1, 2), *MAP_GRID, 400)
        assert list(dict.fromkeys(widths)) == [64, 128]
        lost = table["g2"] == 0.125
        assert seed0_map["ok"][lost].all() and not table["ok"][lost].any()
        assert table[~lost].tobytes() == seed0_map[~lost].tobytes()

    def test_map_cap_that_fails_the_bound_names_the_cap(self, ladder):
        with pytest.raises(ConvergenceError, match=r"n0 \+- 64 leaves the map's g2 column"):
            resonance_sharpness_map(ladder, (1, 2), *MAP_GRID, 64)

    def test_sweep_bounds_are_the_sector_bounds(self, ladder):
        n0 = ladder.n0
        which = [(j, central_quantum(j, n0)) for j in (1, 2, 3)]
        tr = track_levels(ladder, (0.0, 0.0), (1.0, 1.25), 9, n0, 64, which)
        assert tr.bounds.shape == tr.energies.shape
        for s, g in enumerate(tr.gs):
            h = build_hamiltonian(ladder.with_couplings(*g), n0, 64, "even")
            # equal up to the summation order of the norms, which follows the
            # memory layout of the vectors
            assert_allclose(tr.bounds[s], h.truncation_bound(tr.energies[s], tr.step_vectors[s]),
                            rtol=1e-12, atol=0.0)


# the seed-0 resonance-map grid of the benchmark
MAP_GRID = (np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.25, 11))


@pytest.fixture(scope="module")
def seed0_map():
    ladder = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 10**8)
    return resonance_sharpness_map(ladder, (1, 2), *MAP_GRID, 128)


@settings(max_examples=30, deadline=None)
@given(n0=st.integers(150, 10**8), transition=st.sampled_from([(1, 2), (2, 3), (1, 3)]),
       g_max=st.tuples(st.floats(0.05, 0.4), st.floats(0.05, 0.4)),
       points=st.tuples(st.integers(2, 5), st.integers(2, 5)), cap=st.integers(64, 150))
def test_growing_window_map_matches_the_cap(n0, transition, g_max, points, cap):
    template = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, n0)
    grids = [np.linspace(0.0, top, count) for top, count in zip(g_max, points)]
    which = [(j, central_quantum(j, n0)) for j in transition]
    table = resonance_sharpness_map(template, transition, *grids, cap)
    at_cap = fock._map_on(template, which, *grids, cap)
    assert np.array_equal(table["ok"], at_cap["ok"])
    assert np.array_equal(table["delta_n"], at_cap["delta_n"])
    assert_allclose(table["diff"], at_cap["diff"], rtol=0, atol=1e-8)


class TestAnticrossing:
    def test_even_exchange_rejected(self, ladder):
        with pytest.raises(ValueError):
            anticrossing_gap(ladder, (1.0, 0.3), 12, (1, 2), 100)

    def test_decoupled_transition_gap_vanishes(self):
        # with the lower coupling off, level-1 states cross exactly; the
        # third level sits far away so no accidental resonance interferes
        remote = ModelParams(0.0, 11.0, 100.0, 0.0, 0.0, 10**8)
        res = anticrossing_gap(remote, (0.0, 0.2), 9, (1, 2), 120)
        assert res.gap < 1e-7

    def test_failed_refinement_raises(self, ladder, monkeypatch):
        def no_convergence(fun, bounds=None, **kwargs):
            return scipy.optimize.OptimizeResult(
                x=bounds[0], fun=fun(bounds[0]), success=False,
                message="Maximum number of function calls reached.")

        monkeypatch.setattr(fock, "minimize_scalar", no_convergence)
        with pytest.raises(ConvergenceError, match="not refined"):
            anticrossing_gap(ladder, (1.0, 0.3), 13, (1, 2), 100)

    def test_no_point_solved_twice_after_the_approach(self, ladder, monkeypatch):
        # the coarse pass, the fill and the polish each assemble a new point,
        # and every solve of the polish is one evaluation of a minimization;
        # the truncation bound reuses the solve at the minimum it returned
        built, approach_end, polish_start, evaluations = [], [], [], []
        build, minimize, track = fock.build_hamiltonian, fock.minimize_scalar, fock.track_levels

        def spy_build(params, *args):
            built.append((params.u, params.v))
            return build(params, *args)

        def spy_track(*args, **kwargs):
            tr = track(*args, **kwargs)
            approach_end.append(len(built))
            return tr

        def spy_minimize(fun, **kwargs):
            polish_start.append(len(built))
            res = minimize(fun, **kwargs)
            evaluations.append(res.nfev)
            return res

        monkeypatch.setattr(fock, "build_hamiltonian", spy_build)
        monkeypatch.setattr(fock, "track_levels", spy_track)
        monkeypatch.setattr(fock, "minimize_scalar", spy_minimize)
        res = anticrossing_gap(ladder, (1.0, 0.3), 13, (1, 2), 400)
        assert res.half_width == 64 and len(approach_end) == 1
        assert len(res.minima) == len(evaluations) >= 1
        assert len(built) - polish_start[0] == sum(evaluations)
        after = built[approach_end[0]:]
        assert len(after) == len(set(after)) == res.ts.size + sum(evaluations)

    def test_benign_line_gap_matches_two_state_estimate(self, ladder):
        from triladder import pt_splitting
        res = anticrossing_gap(ladder, (1.0, 0.3), 15, (1, 2), 400)
        pt = pt_splitting(ladder.with_couplings(*res.g_contour), (1, 2), 15)
        assert pt / res.gap == pytest.approx(1.0, abs=0.25)

    def test_nearest_mode_sees_every_minimum_of_criterion_8_line(self, ladder):
        # the distance to the pair's nearest other level shows the pair's own
        # minimum (0.7011) and the two where a third level comes nearer
        res = anticrossing_gap(ladder, (1.0, 0.1), 23, (1, 2), 400)
        assert [round(g1, 4) for g1, _, _ in res.minima] == [0.6669, 0.7011, 0.7496]
        assert res.minima[2][2] == pytest.approx(0.3236, abs=1e-4)


# the ends of criterion 8's interference line, the interference line of
# tests/test_splittings.py (delta_n 13) and the seed-0 benchmark line (delta_n
# 13, and 17 with two foreign minima), each from zero coupling
SCAN_LINES = {
    "interference-c8": ((1.0, 0.1), 23),
    "interference-dn13": ((0.7, 0.77), 13),
    "benign-dn13": ((1.1, 0.33), 13),
    "benign-dn17": ((1.1, 0.33), 17),
}


@pytest.mark.parametrize("end, dn", [((1.1, 0.33), 13), ((1.05, 0.525), 17),
                                     ((1.05, 1.1 * 1.05), 17)])
def test_one_group_candidates_are_the_spectrum_in_their_span(ladder, monkeypatch, end, dn):
    # the gap scan reads the pair's nearest other level among the candidates
    # of its solve; that is exact because the candidates of targets that form
    # one group are every eigenvalue of the sector between the lowest and highest
    checked = []

    def with_reference(h, targets, *args, **kwargs):
        vals, vecs = _shift_invert_near(h, targets, *args, **kwargs)
        if len(fock._cluster_targets(targets)) == 1:
            span = scipy.linalg.eig_banded(h.bands, lower=True, eigvals_only=True, select="v",
                                           select_range=(vals[0] - 1e-9, vals[-1] + 1e-9))
            assert span.size == vals.size
            assert_allclose(vals, span, rtol=0.0, atol=1e-9)
            checked.append(vals.size)
        return vals, vecs

    monkeypatch.setattr(fock, "_shift_invert_near", with_reference)
    try:
        anticrossing_gap(ladder, end, dn, (1, 2), 400)
    except TrackingError:
        pass        # no delta_n 17 minimum is its pair's own; every solve was checked
    assert len(checked) >= 20


class TestCoarseToFineScan:
    @pytest.mark.parametrize("name", sorted(SCAN_LINES))
    def test_matches_exhaustive_scan(self, ladder, monkeypatch, name):
        # the interference lines and benign delta_n 17 check it where a third
        # level comes near the pair: every minimum, own or foreign, is seen
        end, dn = SCAN_LINES[name]
        coarse = anticrossing_gap(ladder, end, dn, (1, 2), 400)
        monkeypatch.setattr(fock, "_COARSE_STRIDE", 1)
        every = anticrossing_gap(ladder, end, dn, (1, 2), 400)
        assert coarse.ts.size < every.ts.size == 101
        assert len(coarse.minima) == len(every.minima)
        assert_allclose(np.array(coarse.minima)[:, :2], np.array(every.minima)[:, :2],
                        rtol=0.0, atol=1e-6)
        assert_allclose(np.array(coarse.minima)[:, 2], np.array(every.minima)[:, 2],
                        rtol=1e-9, atol=0.0)
        assert_allclose(coarse.g_star, every.g_star, rtol=0.0, atol=1e-6)
        assert coarse.gap == pytest.approx(every.gap, rel=1e-9)

    def test_evaluates_at_most_half_the_grid(self, ladder):
        end, dn = SCAN_LINES["benign-dn13"]
        scan = anticrossing_gap(ladder, end, dn, (1, 2), 400)
        assert scan.ts.size <= 50
        assert np.all(np.diff(scan.ts) > 0)


class TestApproach:
    """The approach to the scan vicinity is one interval, bisected on demand."""

    @pytest.mark.parametrize("name", ["benign-dn13", "interference-dn13"])
    def test_matches_fixed_step_approach(self, ladder, monkeypatch, name):
        end, dn = SCAN_LINES[name]
        on_demand = anticrossing_gap(ladder, end, dn, (1, 2), 400)
        monkeypatch.setattr(fock, "_APPROACH_STEPS", 24)
        fixed = anticrossing_gap(ladder, end, dn, (1, 2), 400)
        assert len(on_demand.minima) == len(fixed.minima)
        assert_allclose(on_demand.g_star, fixed.g_star, rtol=0.0, atol=1e-9)
        assert on_demand.gap == pytest.approx(fixed.gap, rel=1e-9)

    def test_benign_scan_solve_count(self, ladder, monkeypatch):
        # 24 fixed approach steps made 69 solves here, one interval makes 47
        calls = []

        def counted(h, *args, **kwargs):
            calls.append(h)
            return _shift_invert_near(h, *args, **kwargs)

        monkeypatch.setattr(fock, "_shift_invert_near", counted)
        end, dn = SCAN_LINES["benign-dn13"]
        anticrossing_gap(ladder, end, dn, (1, 2), 400)
        assert len(calls) <= 50


class TestSharpnessMap:
    def test_uncoupled_point_hits_cap(self, ladder):
        table = resonance_sharpness_map(ladder, (1, 2), np.array([0.0]),
                                        np.array([0.0]), 60)
        assert table.shape[0] == 1
        row = table[0]
        assert row["diff"] == pytest.approx(11.0, abs=1e-9)
        assert row["delta_n"] == 11
        assert row["sharpness"] == pytest.approx(1e6)
        assert bool(row["ok"])

    @pytest.mark.parametrize("transition", [(1, 5), (2, 1), (0, 2)])
    def test_bad_transition_rejected(self, ladder, transition):
        with pytest.raises(ValueError):
            resonance_sharpness_map(ladder, transition, np.array([0.0, 0.1]),
                                    np.array([0.0]), 60)

    def test_upper_pair_rows_take_even_exchanges(self, ladder):
        # (1,3) couples at even exchanges only, so each row's delta_n is the
        # even integer nearest its transition (rows lost by tracking aside:
        # 20 of these 25, the CHANGES.md FOUND on track_levels)
        table = resonance_sharpness_map(ladder, (1, 3), np.linspace(0.0, 1.0, 5),
                                        np.linspace(0.0, 1.25, 5), 400)
        ok = table[table["ok"]]
        assert ok.size >= 5
        assert np.all(ok["delta_n"] % 2 == 0)
        assert np.all(np.abs(ok["diff"] - ok["delta_n"]) <= 1.0)
        assert ok[0]["delta_n"] == 24 and ok[0]["sharpness"] == pytest.approx(1e6)

    def test_ridges_align_with_contours(self, ladder):
        # along one row of the map, the sharpness peak of the 13-quantum
        # ridge must sit within a cell of where the dressed contour crosses
        from triladder import contour_point_on_line
        g2_row = 0.12
        g1 = np.linspace(0.0, 0.42, 29)
        table = resonance_sharpness_map(ladder, (1, 2), g1, np.array([g2_row]), 150)
        on_ridge = table[table["delta_n"] == 13]
        assert on_ridge.size > 0
        peak_g1 = on_ridge[np.argmax(on_ridge["sharpness"])]["g1"]
        ratio = g2_row / peak_g1
        g1_contour, _ = contour_point_on_line(ladder, (1, 2), 13, ratio=ratio,
                                              g1_max=0.6)
        assert abs(peak_g1 - g1_contour) <= (g1[1] - g1[0])
