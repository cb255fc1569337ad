import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from fracsym import (
    EigendecompositionError,
    IncompatibleData,
    ScalarField,
    SpectralOperator,
    apply_fractional,
    build_interval,
    build_operator,
    build_radial_ball,
    build_rectangle,
    implicit_step,
    solve_elliptic,
    unit_ball_measure,
)
from fracsym.spectral import DENSE_CAP, _DenseBasis


def _tridiag_1d(n, h, bc):
    """1D -d2/dx2 on n cells of width h; reflecting ghost (Neumann) or
    odd-mirror ghost (Dirichlet wall value zero)."""
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = 2.0
    a[idx[:-1], idx[:-1] + 1] = -1.0
    a[idx[1:], idx[1:] - 1] = -1.0
    a[0, 0] = a[-1, -1] = 1.0 if bc == "neumann" else 3.0
    return a / h**2


def _radial_matrix(grid, gamma):
    """Flux-form weighted radial Laplacian -r^(1-N) (r^(N-1) v')' with a
    zero-flux symmetry condition at r = 0 and zero wall value at r = R,
    assembled face by face."""
    n = grid.n_cells
    dim = grid.dimension
    radius = grid.lengths[0]
    dr = radius / n
    faces = np.linspace(0.0, radius, n + 1)
    area = dim * unit_ball_measure(dim) * faces ** (dim - 1)
    k = np.zeros((n, n))
    for i in range(n - 1):
        f = area[i + 1] / dr
        k[i, i] += f
        k[i + 1, i + 1] += f
        k[i, i + 1] -= f
        k[i + 1, i] -= f
    # interface 0 carries no flux (symmetry at the origin); the wall sees the
    # zero Dirichlet value at half-cell distance
    k[-1, -1] += 2.0 * area[-1] / dr
    return gamma * (k / grid.measures[:, None])


def oracle_matrix(grid, gamma=1.0):
    """Dense -gamma * Laplacian: the radial stencil on the ball, the
    Kronecker sum of the 1D stencils over the axes of a box (x-major)."""
    if grid.kind == "radial_ball":
        return _radial_matrix(grid, gamma)
    axes = [_tridiag_1d(n, length / n, grid.bc) for n, length in zip(grid.shape, grid.lengths)]
    return gamma * functools.reduce(
        lambda a, b: np.kron(a, np.eye(len(b))) + np.kron(np.eye(len(a)), b), axes
    )


def dense_oracle(grid, gamma=1.0):
    """Weighted dense eigendecomposition of oracle_matrix: the generalized
    problem (M A) v = lambda M v with M = diag(measures), the Neumann kernel
    clamped to 0 and each mode's first entry above 1e-8 of its max made
    positive."""
    m = grid.measures
    lam, vecs = scipy.linalg.eigh(m[:, None] * oracle_matrix(grid, gamma), np.diag(m))
    if grid.bc == "neumann":
        lam[0] = 0.0
    big = np.abs(vecs) > 1e-8 * np.max(np.abs(vecs), axis=0)
    vecs *= np.sign(vecs[np.argmax(big, axis=0), np.arange(lam.size)])
    return SpectralOperator(grid, float(gamma), grid.bc, lam, _DenseBasis(vecs, m))


@pytest.fixture(scope="module")
def interval_neumann():
    return build_operator(build_interval(64, 1.0, "neumann"))


def mode_field(spec, k):
    coeffs = np.zeros(spec.n_modes)
    coeffs[k] = 1.0
    return spec.synthesize(coeffs)


class TestAssembly:
    def test_neumann_row_sums_vanish(self):
        mat = oracle_matrix(build_interval(16, 1.0, "neumann"))
        np.testing.assert_allclose(mat.sum(axis=1), 0.0, atol=1e-12)

    def test_dirichlet_eigenvalues_closed_form(self):
        # FD oracles on the unit interval: 4 n^2 sin^2(k pi / 2n); on the 1D
        # ball (-1/2, 1/2), n shells of the cell-centred stencil reflecting at
        # r = 0 and zero at the wall: 4 (2n)^2 sin^2((2k - 1) pi / 4n)
        n = 32
        k = np.arange(1, n + 1)
        spec = build_operator(build_interval(n, 1.0, "dirichlet"))
        np.testing.assert_allclose(
            spec.eigenvalues, 4 * n * n * np.sin(k * math.pi / (2 * n)) ** 2, rtol=1e-10
        )
        spec = build_operator(build_radial_ball(n, 1, 1.0))
        exact = 16 * n * n * np.sin((2 * k - 1) * math.pi / (4 * n)) ** 2
        np.testing.assert_allclose(spec.eigenvalues, exact, rtol=1e-10)

    def test_gamma_scales_linearly(self):
        for g in (build_interval(16, 1.0, "dirichlet"), build_radial_ball(16, 2, 0.5)):
            s1, s2 = build_operator(g, 1.0), build_operator(g, 2.0)
            np.testing.assert_allclose(s2.eigenvalues, 2.0 * s1.eigenvalues, rtol=1e-12)

    def test_rejects_nonpositive_gamma(self):
        for g in (build_interval(8, 1.0), build_radial_ball(8, 2, 0.5)):
            for gamma in (0.0, -1.0):
                with pytest.raises(ValueError, match="gamma"):
                    build_operator(g, gamma)

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    def test_rectangle_is_explicit_kronecker_sum(self, bc):
        nx, ny, lx, ly, gamma = 5, 3, 2.0, 0.7, 1.3
        ax = _tridiag_1d(nx, lx / nx, bc)
        ay = _tridiag_1d(ny, ly / ny, bc)
        explicit = gamma * (np.kron(ax, np.eye(ny)) + np.kron(np.eye(nx), ay))
        mat = oracle_matrix(build_rectangle(nx, ny, lx, ly, bc), gamma)
        assert np.array_equal(mat, explicit)


class TestEigendecomposition:
    def test_neumann_kernel_mode(self, interval_neumann):
        spec = interval_neumann
        assert spec.eigenvalues[0] == 0.0
        np.testing.assert_allclose(mode_field(spec, 0).values, 1.0, atol=1e-10)

    def test_neumann_continuum_limit(self):
        spec = build_operator(build_interval(256, 1.0, "neumann"))
        for k in range(1, 5):
            # FD eigenvalue 4n^2 sin^2(k pi/2n) sits (k pi)^2/(12 n^2) below
            rel = (k * math.pi) ** 2 / (12 * 256**2) * 1.5
            assert spec.eigenvalues[k] == pytest.approx((k * math.pi) ** 2, rel=rel)

    def test_completeness(self, interval_neumann):
        spec = interval_neumann
        rng = np.random.default_rng(0)
        u = ScalarField(spec.grid, rng.standard_normal(spec.grid.n_cells))
        back = spec.synthesize(spec.coefficients(u))
        assert (back - u).norm(2) < 1e-10

    def test_weighted_orthonormality(self):
        spec = build_operator(build_radial_ball(40, 2, 0.5))
        gram = spec.eigenvectors.T @ (spec.eigenvectors * spec.grid.measures[:, None])
        assert np.max(np.abs(gram - np.eye(spec.n_modes))) < 1e-10

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(8)
        for bc in ("neumann", "dirichlet"):
            for grid in (build_interval(32, 1.0, bc), build_rectangle(8, 6, 1.0, 1.5, bc)):
                a, b = build_operator(grid), build_operator(grid)
                for k in range(a.n_modes):
                    assert mode_field(a, k).values[0] > 0.0, f"{grid.kind} {bc} mode {k}"
                u = ScalarField(grid, rng.standard_normal(grid.n_cells))
                assert np.array_equal(a.coefficients(u), b.coefficients(u))

    def test_tensor_matches_dense(self):
        g = build_rectangle(7, 5, 1.0, 1.5, "neumann")
        tensor = build_operator(g)
        dense = dense_oracle(g)
        np.testing.assert_allclose(tensor.eigenvalues, dense.eigenvalues, atol=1e-9)
        rng = np.random.default_rng(1)
        u = ScalarField(g, rng.standard_normal(g.n_cells))
        a = apply_fractional(tensor, 0.5, u)
        b = apply_fractional(dense, 0.5, u)
        assert (a - b).norm(2) < 1e-9

    def test_dirichlet_interval_spectral_convergence(self):
        errs = []
        for n in (32, 64, 128):
            spec = build_operator(build_interval(n, 1.0, "dirichlet"))
            errs.append(abs(spec.eigenvalues[0] - math.pi**2))
        # O(n^-2): each doubling shrinks the error by about 4
        assert errs[0] / errs[1] > 3.5
        assert errs[1] / errs[2] > 3.5

    def test_ball_cap_checked_before_allocating(self):
        ball = build_radial_ball(DENSE_CAP + 1, 2, 0.5)
        tracemalloc.start()
        try:
            with pytest.raises(EigendecompositionError, match="capped"):
                build_operator(ball)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_radial_ball_spectrum_bessel_oracle(self):
        from scipy.special import jn_zeros

        ball = build_radial_ball(400, 2, 0.5)
        spec = build_operator(ball)
        radius = ball.lengths[0]
        exact = (jn_zeros(0, 3) / radius) ** 2
        np.testing.assert_allclose(spec.eigenvalues[:3], exact, rtol=2e-4)

    def test_symmetry_in_weighted_product(self):
        rng = np.random.default_rng(2)
        for grid in (build_radial_ball(30, 3, 1.0), build_interval(32, 1.0, "neumann")):
            spec = build_operator(grid)
            u = ScalarField(grid, rng.standard_normal(grid.n_cells))
            v = ScalarField(grid, rng.standard_normal(grid.n_cells))
            au = apply_fractional(spec, 1.0, u)
            av = apply_fractional(spec, 1.0, v)
            assert abs(au.inner(v) - u.inner(av)) < 1e-10 * max(1.0, u.norm(2) * v.norm(2))


@st.composite
def boxes(draw):
    """Interval or rectangle with 2..24 cells per side and random lengths."""
    bc = draw(st.sampled_from(["neumann", "dirichlet"]))
    side, length = st.integers(2, 24), st.floats(0.2, 5.0)
    if draw(st.booleans()):
        return build_interval(draw(side), draw(length), bc)
    return build_rectangle(draw(side), draw(side), draw(length), draw(length), bc)


class TestBoxMatchesDenseOracle:
    """Matrix-free box operators against the dense oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        grid=boxes(),
        gamma=st.floats(0.05, 20.0),
        sigma=st.floats(0.0, 1.0),
        t=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense(self, grid, gamma, sigma, t, seed):
        box = build_operator(grid, gamma)
        dense = dense_oracle(grid, gamma)
        lam_max = dense.eigenvalues[-1]
        assert np.max(np.abs(box.eigenvalues - dense.eigenvalues)) <= 1e-12 * lam_max
        rng = np.random.default_rng(seed)
        u = ScalarField(grid, rng.standard_normal(grid.n_cells))
        f = u - u.mean()
        for op in (
            lambda spec: apply_fractional(spec, sigma, u),
            lambda spec: solve_elliptic(spec, sigma, 0.0, f),
            lambda spec: solve_elliptic(spec, sigma, 0.5, u),
            lambda spec: implicit_step(spec, sigma, t + 1e-3, u),
        ):
            a, b = op(box), op(dense)
            assert (a - b).norm(2) <= 1e-10 * max(b.norm(2), u.norm(2))
        # Within an eigenvalue cluster the modes may come in any basis of the
        # eigenspace (exact ties such as i + j = n on squares, rotations from
        # eigh), so each cluster's projection of u is compared, and a lone
        # mode coefficient by coefficient.  Clusters are cut at gaps above
        # 1e-3 * lam_max, where eigh mixes modes by at most ~1e-13.
        cb, cd = box.coefficients(u), dense.coefficients(u)
        cuts = np.flatnonzero(np.diff(box.eigenvalues) > 1e-3 * lam_max) + 1
        for cluster in np.split(np.arange(box.n_modes), cuts):
            if cluster.size == 1:
                assert abs(cb[cluster[0]] - cd[cluster[0]]) <= 1e-10 * u.norm(2)
            keep = np.zeros(box.n_modes)
            keep[cluster] = 1.0
            pa, pb = box.synthesize(cb * keep), dense.synthesize(cd * keep)
            assert (pa - pb).norm(2) <= 1e-10 * u.norm(2)

    def test_box_build_needs_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolver called")

        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)
        for bc in ("neumann", "dirichlet"):
            for grid in (build_interval(16, 1.0, bc), build_rectangle(6, 5, 1.0, 2.0, bc)):
                assert build_operator(grid).n_modes == grid.n_cells
        with pytest.raises(AssertionError, match="eigensolver"):
            build_operator(build_radial_ball(8, 2, 0.5))

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    def test_large_box_is_matrix_free(self, bc):
        grid = build_rectangle(256, 256, 1.0, 1.0, bc)
        spec = build_operator(grid)
        assert not hasattr(spec, "eigenvectors")
        rng = np.random.default_rng(9)
        u = ScalarField(grid, rng.standard_normal(grid.n_cells))
        back = spec.synthesize(spec.coefficients(u))
        assert (back - u).norm(2) < 1e-12 * u.norm(2)


class TestBallMatchesDenseOracle:
    """The tridiagonal ball operator against the dense oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 3),
        shells=st.integers(2, 150),
        measure=st.floats(0.1, 10.0),
        gamma=st.floats(0.05, 20.0),
        sigma=st.floats(0.0, 1.0),
        t=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense(self, dim, shells, measure, gamma, sigma, t, seed):
        grid = build_radial_ball(shells, dim, measure)
        ball = build_operator(grid, gamma)
        dense = dense_oracle(grid, gamma)
        lam_max = dense.eigenvalues[-1]
        assert np.max(np.abs(ball.eigenvalues - dense.eigenvalues)) <= 1e-12 * lam_max
        assert np.all(ball.eigenvectors[0] > 0.0)
        gram = ball.eigenvectors.T @ (ball.eigenvectors * grid.measures[:, None])
        assert np.max(np.abs(gram - np.eye(shells))) <= 1e-10
        rng = np.random.default_rng(seed)
        u = ScalarField(grid, rng.standard_normal(shells))
        for op in (
            lambda spec: apply_fractional(spec, sigma, u),
            lambda spec: solve_elliptic(spec, sigma, 0.0, u),
            lambda spec: solve_elliptic(spec, sigma, 0.5, u),
            lambda spec: implicit_step(spec, sigma, t + 1e-3, u),
        ):
            a, b = op(ball), op(dense)
            assert (a - b).norm(2) <= 1e-10 * max(b.norm(2), u.norm(2))


class TestFractionalApply:
    def test_constant_annihilated(self, interval_neumann):
        spec = interval_neumann
        const = ScalarField(spec.grid, np.full(spec.grid.n_cells, 3.0))
        assert apply_fractional(spec, 0.5, const).norm("inf") < 1e-12

    def test_eigenmode_multiplier(self, interval_neumann):
        spec = interval_neumann
        phi = mode_field(spec, 3)
        out = apply_fractional(spec, 0.7, phi)
        lam = spec.eigenvalues[3]
        assert (out - lam**0.7 * phi).norm(2) < 1e-10 * lam**0.7

    def test_sigma_one_recovers_matrix_action(self):
        rng = np.random.default_rng(3)
        for g in (build_interval(32, 1.0, "neumann"), build_radial_ball(32, 3, 0.7)):
            u = ScalarField(g, rng.standard_normal(32))
            direct = ScalarField(g, oracle_matrix(g, 1.7) @ u.values)
            out = apply_fractional(build_operator(g, 1.7), 1.0, u)
            assert (out - direct).norm(2) < 1e-10 * direct.norm(2)


class TestSolve:
    def test_eigenmode_inverse(self, interval_neumann):
        spec = interval_neumann
        phi = mode_field(spec, 2)
        u = solve_elliptic(spec, 0.5, 0.0, phi)
        lam = spec.eigenvalues[2]
        assert (u - lam**-0.5 * phi).norm(2) < 1e-12

    def test_constant_with_zero_order_term(self, interval_neumann):
        spec = interval_neumann
        one = ScalarField(spec.grid, np.ones(spec.grid.n_cells))
        u = solve_elliptic(spec, 0.5, 2.0, one)
        np.testing.assert_allclose(u.values, 0.5, atol=1e-12)

    def test_roundtrip_zero_mean(self, interval_neumann):
        spec = interval_neumann
        rng = np.random.default_rng(4)
        f = ScalarField(spec.grid, rng.standard_normal(spec.grid.n_cells))
        f = f - f.mean()
        u = solve_elliptic(spec, 0.5, 0.0, f)
        assert abs(u.mean()) < 1e-12
        assert (apply_fractional(spec, 0.5, u) - f).norm(2) < 1e-8

    def test_incompatible_mean_rejected(self, interval_neumann):
        spec = interval_neumann
        f = ScalarField(spec.grid, np.ones(spec.grid.n_cells))
        with pytest.raises(IncompatibleData):
            solve_elliptic(spec, 0.5, 0.0, f)

    def test_resolvent_contraction(self, interval_neumann):
        spec = interval_neumann
        rng = np.random.default_rng(5)
        for c in (0.5, 2.0):
            f = ScalarField(spec.grid, rng.standard_normal(spec.grid.n_cells))
            u = solve_elliptic(spec, 0.5, c, f)
            assert u.norm(2) <= f.norm(2) / c + 1e-12

    def test_dirichlet_zero_c_allowed(self):
        spec = build_operator(build_radial_ball(32, 2, 0.5))
        f = ScalarField(spec.grid, np.ones(32))
        u = solve_elliptic(spec, 0.5, 0.0, f)
        back = apply_fractional(spec, 0.5, u)
        assert (back - f).norm(2) < 1e-8
