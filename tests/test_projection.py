import math

import numpy as np
import pytest
from scipy.integrate import quad

from midnightq import (
    DiffusionParams,
    ModelParams,
    GramError,
    RatioReconstruction,
    TransitionKernel,
    apply_kernel_operator,
    assemble_gram,
    build_basis,
    default_basis,
    derive_diffusion_params,
    dou_stationary_density,
    proxy_density,
    solve_gram,
)
from midnightq.projection import GramSystem, PiecewiseLinear, lf_hat_matrix

TOY = DiffusionParams(
    drift=0.0, variance=1.0, tail_rate=1.0, gaussian_center=-1.0, ou_variance=1.0
)


def small_setup(params, m=64, quad_order=16, tail_order=24):
    d = derive_diffusion_params(params)
    mu = params.daily_service_prob
    r = proxy_density(d, mu)
    basis = default_basis(d, m)
    kernel = TransitionKernel(d, mu)
    system = assemble_gram(basis, kernel, r, quad_order=quad_order, tail_order=tail_order)
    return d, mu, r, basis, kernel, system


class TestBuildBasis:
    def test_uniform_integer_grid(self):
        basis = build_basis(-10, 10, 20)
        assert basis.size == 21
        assert basis.width == 1.0
        assert np.array_equal(basis.nodes, np.arange(-10.0, 11.0))
        assert 0.0 in basis.nodes

    def test_zero_node_example(self):
        basis = build_basis(-3, 9, 4)
        assert np.array_equal(basis.nodes, np.array([-3.0, 0.0, 3.0, 6.0, 9.0]))

    def test_grid_missing_zero_rejected(self):
        with pytest.raises(ValueError, match="zero must be a node"):
            build_basis(-2.5, 9, 4)

    def test_domain_must_straddle_zero(self):
        with pytest.raises(ValueError, match="straddle"):
            build_basis(1.0, 9.0, 8)

    def test_too_few_elements_rejected(self):
        with pytest.raises(ValueError, match="elements"):
            build_basis(-4, 4, 3)

    def test_partition_of_unity_at_random_points(self):
        basis = build_basis(-7, 13, 40)
        rng = np.random.default_rng(1)
        xs = rng.uniform(-7, 13, 1000)
        total = basis.hat_matrix(xs).sum(axis=0)
        assert np.abs(total - 1.0).max() <= 1e-12

    def test_hats_vanish_outside_domain(self):
        basis = build_basis(-7, 13, 40)
        outside = np.array([-7.5, 13.5, -100.0, 40.0])
        assert np.all(basis.hat_matrix(outside) == 0.0)

    def test_hat_supports(self):
        basis = build_basis(-5, 5, 10)
        assert basis.hat(0).nodes.size == 2
        assert basis.hat(10).nodes.size == 2
        assert basis.hat(4).nodes.size == 3

    def test_default_basis_pins_zero(self, params_small):
        d = derive_diffusion_params(params_small)
        basis = default_basis(d, 64)
        assert 0.0 in basis.nodes
        assert basis.grid_lo < d.gaussian_center
        assert basis.grid_hi > 10.0 / d.tail_rate


class TestKernelOperator:
    def test_constants_are_preserved(self):
        kernel = TransitionKernel(TOY, 0.5)
        xs = np.linspace(-20, 20, 41)
        values = apply_kernel_operator(kernel, 1.0, xs)
        assert np.abs(values - 1.0).max() == 0.0

    def test_generator_annihilates_constants(self):
        kernel = TransitionKernel(TOY, 0.5)
        xs = np.linspace(-20, 20, 41)
        lf = apply_kernel_operator(kernel, 1.0, xs) - 1.0
        assert np.abs(lf).max() <= 1e-12

    def test_hat_gaussian_overlap_matches_quadrature(self):
        # Standard-normal step (drift 0, variance 1) applied to the unit hat.
        kernel = TransitionKernel(TOY, 0.5)
        hat = PiecewiseLinear(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
        oracle, err = quad(
            lambda y: hat(y) * math.exp(-0.5 * y * y) / math.sqrt(2 * math.pi), -1, 1
        )
        assert err < 1e-12
        assert oracle == pytest.approx(0.3687463803725073, abs=1e-12)
        assert apply_kernel_operator(kernel, hat, 0.0) == pytest.approx(oracle, abs=1e-13)

    def test_far_state_sees_no_mass(self):
        kernel = TransitionKernel(TOY, 0.5)
        hat = PiecewiseLinear(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
        assert apply_kernel_operator(kernel, hat, -200.0) <= 1e-9
        assert apply_kernel_operator(kernel, hat, 200.0) <= 1e-9

    def test_matches_hat_matrix_row_by_row(self, params_small):
        d = derive_diffusion_params(params_small)
        kernel = TransitionKernel(d, params_small.daily_service_prob)
        basis = default_basis(d, 16)
        xs = np.linspace(basis.grid_lo - 5, basis.grid_hi + 5, 73)
        lf = lf_hat_matrix(basis, kernel, xs)
        for i in (0, 1, 8, 16):
            hat = basis.hat(i)
            expected = apply_kernel_operator(kernel, hat, xs) - hat(xs)
            assert np.abs(lf[i] - expected).max() <= 1e-13

    def test_piecewise_linear_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            PiecewiseLinear(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))


class TestAssembleGram:
    def test_matrix_symmetric_and_psd(self, params_small):
        *_, system = small_setup(params_small)
        a = system.matrix
        scale = np.abs(a).max()
        assert np.abs(a - a.T).max() <= 1e-12 * scale
        eigs = np.linalg.eigvalsh(a)
        assert eigs.min() >= -1e-10 * eigs.max()
        assert np.all(np.diag(a) >= 0.0)

    def test_quadrature_refinement_is_converged(self, params_small):
        # Every entry either moves by < 1e-9 relative under doubled orders or
        # sits at the float64 roundoff floor of its own absolute-value sums.
        *_, base = small_setup(params_small, m=64, quad_order=16, tail_order=24)
        *_, fine = small_setup(params_small, m=64, quad_order=32, tail_order=48)
        eps = np.finfo(float).eps

        abs_weighted = np.abs(base.lf) * np.sqrt(base.quad_w)
        matrix_noise = 100.0 * eps * (abs_weighted @ abs_weighted.T)
        matrix_diff = np.abs(base.matrix - fine.matrix)
        ok = (matrix_diff <= 1e-9 * np.abs(base.matrix)) | (matrix_diff <= matrix_noise)
        assert ok.all()

        rhs_noise = 100.0 * eps * (np.abs(base.lf) @ base.quad_w)
        rhs_diff = np.abs(base.rhs - fine.rhs)
        ok = (rhs_diff <= 1e-9 * np.abs(base.rhs)) | (rhs_diff <= rhs_noise)
        assert ok.all()

    def test_overflowing_reference_names_element(self, params_small):
        d = derive_diffusion_params(params_small)
        basis = default_basis(d, 16)
        kernel = TransitionKernel(d, params_small.daily_service_prob)

        def exploding(x):
            return np.exp(np.asarray(x, dtype=float) ** 4)

        with np.errstate(over="ignore"):
            with pytest.raises(GramError, match="element"):
                assemble_gram(basis, kernel, exploding)


def synthetic_system(matrix, rhs, rhs_scale=1.0):
    return GramSystem(
        matrix=np.asarray(matrix, dtype=float),
        rhs=np.asarray(rhs, dtype=float),
        reference=None,
        kernel=None,
        basis=None,
        quad_x=np.zeros(0),
        quad_w=np.zeros(0),
        lf=np.zeros((len(rhs), 0)),
        e_mass=1.0,
        n_core=0,
        rhs_scale=rhs_scale,
    )


class TestSolveGram:
    def test_identity_system(self):
        rhs = np.array([1.0, -2.0, 0.5])
        system = synthetic_system(np.eye(3), rhs)
        alpha = solve_gram(system)
        # the deliberate diagonal shift perturbs the solution at its own scale
        assert np.abs(alpha - rhs).max() <= 1e-10
        assert system.residual <= 1e-10

    def test_rank_deficient_solutions_share_projection(self):
        # Two mapped functions plus their sum: the Gram matrix is singular,
        # but any residual-zero coefficient vector yields the same projection.
        rng = np.random.default_rng(11)
        q = 60
        w = rng.uniform(0.1, 1.0, q)
        g1 = rng.normal(size=q)
        g2 = rng.normal(size=q)
        lf = np.vstack([g1, g2, g1 + g2])
        m = lf * np.sqrt(w)
        a = m @ m.T
        alpha_true = np.array([1.0, -0.5, 2.0])
        b = a @ alpha_true

        alpha_min = np.linalg.lstsq(a, b, rcond=None)[0]
        system = synthetic_system(a, b, rhs_scale=float(np.abs(b).sum()))
        alpha_solver = solve_gram(system)
        null_vec = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)
        assert np.abs(a @ null_vec).max() <= 1e-12 * np.abs(a).max()

        for other in (alpha_solver, alpha_min + 0.7 * null_vec):
            diff = (alpha_min - other) @ lf
            weighted_norm = math.sqrt(float(w @ diff**2))
            assert weighted_norm <= 1e-10

    def test_indefinite_system_raises(self):
        with pytest.raises(GramError, match="factorization"):
            solve_gram(synthetic_system(np.diag([1.0, -1.0]), np.array([1.0, 1.0])))

    @pytest.mark.parametrize(
        "n, lam, mean_los, elements",
        [(1808, 391.05, 4.193, 90), (1423, 32.58, 40.15, 319)],
    )
    def test_refinement_clears_shift_residual(self, n, lam, mean_los, elements):
        # Stable systems whose shifted Cholesky residual, about shift * |alpha|,
        # sat just above the tolerance before refinement.
        params = ModelParams.from_mean_los(n, lam, mean_los)
        *_, system = small_setup(params, m=elements)
        alpha = solve_gram(system)
        tol = 100.0 * np.finfo(float).eps * system.rhs_scale
        assert np.linalg.norm(system.matrix @ alpha - system.rhs) <= tol

    def test_inconsistent_system_raises_with_residual(self):
        a = np.diag([1.0, 0.0])
        b = np.array([0.0, 1.0])
        with pytest.raises(GramError) as err:
            solve_gram(synthetic_system(a, b))
        assert err.value.residual == pytest.approx(1.0, abs=1e-6)


class TestReconstruction:
    def test_orthogonality_at_solution(self, params_small):
        *_, system = small_setup(params_small, m=96)
        alpha = solve_gram(system)
        gap = np.abs(system.matrix @ alpha - system.rhs).max()
        assert gap <= 1e-8

    def test_unsolved_system_rejected(self, params_small):
        *_, system = small_setup(params_small, m=16)
        with pytest.raises(GramError, match="solve"):
            RatioReconstruction(system)

    def test_small_system_mass_and_positivity(self, params_small):
        d, mu, r, basis, kernel, system = small_setup(params_small, m=160)
        solve_gram(system)
        recon = RatioReconstruction(system)
        assert recon.norm_sq > 0.0
        raw, clipped = recon.domain_mass()
        assert 0.98 <= raw <= 1.02
        xs = np.linspace(basis.grid_lo, basis.grid_hi, 2001)
        values = recon.density(xs)
        assert values.min() >= -1e-6  # clipping threshold
        table, diag = recon.table(xs)
        assert math.isfinite(diag["condition_estimate"])
        assert diag["clipped_mass"] <= 1e-6
        assert np.all(table.density >= 0.0)

    def test_dou_reference_recovers_unit_ratio(self):
        # Always-pulled kernel with its exact stationary Gaussian as the
        # reference: the true ratio is identically one.
        theta, sigma2, mu = -1.0, 4.0, 0.5
        dou = dou_stationary_density(theta, sigma2, mu)
        d = DiffusionParams(
            drift=theta,
            variance=sigma2,
            tail_rate=0.5,
            gaussian_center=dou.mean,
            ou_variance=dou.variance,
        )
        kernel = TransitionKernel(d, mu, ou_everywhere=True)
        m = 64
        lo, hi = dou.mean - 6 * dou.sd, dou.mean + 6 * dou.sd
        h = (hi - lo) / m
        lo = -round(-lo / h) * h
        basis = build_basis(lo, lo + m * h, m)
        system = assemble_gram(basis, kernel, dou)
        solve_gram(system)
        recon = RatioReconstruction(system)
        grid = np.linspace(dou.mean - 3 * dou.sd, dou.mean + 3 * dou.sd, 241)
        assert np.abs(recon.ratio(grid) - 1.0).max() <= 0.05

    def test_bin_masses_converged_and_match_quadrature(self, params_small):
        d, mu, r, basis, kernel, system = small_setup(params_small, m=96)
        solve_gram(system)
        recon = RatioReconstruction(system)
        edges = np.arange(-20.5, 60.5)
        coarse = recon.bin_masses(edges, points_per_bin=8)
        fine = recon.bin_masses(edges, points_per_bin=64)
        assert abs(coarse.sum() - fine.sum()) <= 1e-10
        # independent adaptive quadrature on one interior bin
        a, b = 2.5, 3.5
        oracle, _ = quad(lambda x: max(recon.density(x), 0.0), a, b, limit=200)
        idx = int(a - edges[0])
        assert coarse[idx] == pytest.approx(oracle, abs=1e-10)

    def test_refining_basis_shrinks_bar_residual(self, params_small):
        # Held-out hats, not aligned with either basis: the weighted residual
        # of the stationarity identity must drop as the test space grows.
        d = derive_diffusion_params(params_small)
        mu = params_small.daily_service_prob
        r = proxy_density(d, mu)
        kernel = TransitionKernel(d, mu)

        held_out = [
            PiecewiseLinear(np.array([c - 1.7, c, c + 1.7]), np.array([0.0, 1.0, 0.0]))
            for c in np.linspace(-8.0, 16.0, 9)
        ]
        span = np.linspace(-40.0, 120.0, 60_001)

        def sup_residual(num_elements: int) -> float:
            basis = default_basis(d, num_elements)
            system = assemble_gram(basis, kernel, r)
            solve_gram(system)
            recon = RatioReconstruction(system)
            qr = recon.ratio(span) * r(span)
            worst = 0.0
            for g in held_out:
                lg = apply_kernel_operator(kernel, g, span) - g(span)
                worst = max(worst, abs(float(np.trapezoid(lg * qr, span))))
            return worst

        coarse = sup_residual(40)
        fine = sup_residual(80)
        assert fine < coarse
