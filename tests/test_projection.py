import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from midnightq import (
    DiffusionParams,
    ModelParams,
    GramError,
    RatioReconstruction,
    TransitionKernel,
    assemble_gram,
    build_basis,
    default_basis,
    default_truncation,
    derive_diffusion_params,
    dou_stationary_density,
    project_stationary_density,
    proxy_density,
    solve_gram,
)
from midnightq.compare import lattice_edges
from midnightq.projection import (
    GramSystem,
    _combine_rows,
    _pf_hats,
    _piece_integrals,
    lf_hat_matrix,
)

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

    def test_default_basis_pins_zero(self, params_small):
        d = derive_diffusion_params(params_small)
        basis = default_basis(d, 64)
        assert 0.0 in basis.nodes
        assert basis.grid_lo < d.gaussian_center
        assert basis.grid_hi > 10.0 / d.tail_rate


class TestKernelOperator:
    def test_generator_annihilates_constants(self):
        # The hats of a grid that holds every step from xs to 40 sd sum to
        # the constant one there, which P preserves.
        kernel = TransitionKernel(TOY, 0.5)
        xs = np.linspace(-20, 20, 41)
        t = np.linspace(-60.0, 60.0, 241)
        lf = _pf_hats(t, 0.5, kernel, xs).sum(axis=0) - 1.0
        assert np.abs(lf).max() <= 1e-12

    def test_hat_gaussian_overlap_matches_quadrature(self):
        # Standard-normal step (drift 0, variance 1) applied to the unit hat.
        kernel = TransitionKernel(TOY, 0.5)
        oracle, err = quad(
            lambda y: (1.0 - abs(y)) * math.exp(-0.5 * y * y) / math.sqrt(2 * math.pi), -1, 1
        )
        assert err < 1e-12
        assert oracle == pytest.approx(0.3687463803725073, abs=1e-12)
        pf = _pf_hats(np.array([-1.0, 0.0, 1.0]), 1.0, kernel, np.array([0.0]))
        assert pf[1, 0] == pytest.approx(oracle, abs=1e-13)

    def test_far_state_sees_no_mass(self):
        kernel = TransitionKernel(TOY, 0.5)
        pf = _pf_hats(np.array([-1.0, 0.0, 1.0]), 1.0, kernel, np.array([-200.0, 200.0]))
        assert np.all(pf[1] <= 1e-9)

    def test_matches_hat_matrix_row_by_row(self, params_small):
        d = derive_diffusion_params(params_small)
        kernel = TransitionKernel(d, params_small.daily_service_prob)
        basis = default_basis(d, 16)
        xs = np.linspace(basis.grid_lo - 5, basis.grid_hi + 5, 73)
        lf = lf_hat_matrix(basis, kernel, xs)
        for i in (0, 1, 8, 16):
            # hat i alone: its own nodes, one to each side inside the grid
            nodes = basis.nodes[max(i - 1, 0) : i + 2]
            values = (nodes == basis.nodes[i]).astype(float)
            hat = np.interp(xs, nodes, values, left=0.0, right=0.0)
            expected = values @ _pf_hats(nodes, basis.width, kernel, xs) - hat
            assert np.abs(lf[i] - expected).max() <= 1e-13

    def test_one_ndtr_piece_integrals_match_two_ndtr_formula(self, params_small):
        d = derive_diffusion_params(params_small)
        breaks = default_basis(d, 160).nodes
        sd = math.sqrt(d.variance)
        means = np.linspace(breaks[0] - 10 * sd, breaks[-1] + 10 * sd, 4001)
        z = (breaks[:, None] - means[None, :]) / sd
        cdf, sf = ndtr(z), ndtr(-z)
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        use_sf = (z[:-1] + z[1:]) > 0.0
        ref_i0 = np.where(use_sf, sf[:-1] - sf[1:], cdf[1:] - cdf[:-1])
        ref_i1 = means[None, :] * ref_i0 + sd * (pdf[:-1] - pdf[1:])

        i0, i1 = _piece_integrals(breaks, means, sd)
        # Beyond one sd ndtr is 1 minus the other tail, bit for bit; inside,
        # the complement and ndtr's own value differ by an ulp of [0.5, 1).
        far = (np.abs(z[:-1]) >= 1.0) & (np.abs(z[1:]) >= 1.0)
        assert far.any() and not far.all()
        assert np.array_equal(i0[far], ref_i0[far])
        assert np.array_equal(i1[far], ref_i1[far])
        assert np.all(np.abs(i0 - ref_i0) <= 2 * np.spacing(1.0))
        ulp_mean = np.spacing(np.maximum(np.abs(means), 1.0))[None, :]
        assert np.all(np.abs(i1 - ref_i1) <= 2 * ulp_mean)

    def test_lf_hat_matrix_matches_dense_hats_bit_for_bit(self, params_small):
        d = derive_diffusion_params(params_small)
        kernel = TransitionKernel(d, params_small.daily_service_prob)
        basis = default_basis(d, 160)
        t = basis.nodes
        xs = np.concatenate(
            [
                t,  # every node, both grid ends included
                np.nextafter(t, -np.inf),
                np.nextafter(t, np.inf),
                np.linspace(t[0] - 30.0, t[-1] + 30.0, 5001),
            ]
        )
        dense = _pf_hats(t, basis.width, kernel, xs) - basis.hat_matrix(xs)
        assert np.array_equal(lf_hat_matrix(basis, kernel, xs), dense)


class TestAssembleGram:
    def test_matrix_symmetric_and_psd(self, params_small):
        *_, system = small_setup(params_small)
        a = system.matrix
        scale = np.abs(a).max()
        assert np.abs(a - a.T).max() <= 1e-12 * scale
        eigs = np.linalg.eigvalsh(a)
        assert eigs.min() >= -1e-10 * eigs.max()
        assert np.all(np.diag(a) >= 0.0)

    def test_gram_matrix_is_exactly_symmetric(self, params_small):
        *_, system = small_setup(params_small, m=160)
        a = system.matrix
        assert np.array_equal(a, a.T)
        weighted = system.lf * np.sqrt(system.quad_w)[None, :]
        dense = weighted @ weighted.T
        assert np.abs(a - dense).max() <= 1e-14 * np.abs(dense).max()

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
        alpha, residual = solve_gram(system)
        # the deliberate diagonal shift perturbs the solution at its own scale
        assert np.abs(alpha - rhs).max() <= 1e-10
        assert residual <= 1e-10

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
        alpha_solver, _ = solve_gram(system)
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
        alpha, _ = solve_gram(system)
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
        alpha, _ = solve_gram(system)
        gap = np.abs(system.matrix @ alpha - system.rhs).max()
        assert gap <= 1e-8

    def test_small_system_mass_and_positivity(self, params_small):
        d, mu, r, basis, kernel, system = small_setup(params_small, m=160)
        recon = RatioReconstruction(system)
        assert recon.norm_sq > 0.0
        raw, clipped = recon.domain_mass()
        assert 0.98 <= raw <= 1.02
        xs = np.linspace(basis.grid_lo, basis.grid_hi, 2001)
        values = recon.density(xs)
        assert values.min() >= -1e-6  # clipping threshold
        density, diag = recon.table(xs)
        assert math.isfinite(diag["condition_estimate"])
        assert diag["clipped_mass"] <= 1e-6
        assert np.all(density >= 0.0)

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
        recon = RatioReconstruction(system)
        grid = np.linspace(dou.mean - 3 * dou.sd, dou.mean + 3 * dou.sd, 241)
        assert np.abs(recon.ratio(grid) - 1.0).max() <= 0.05

    def test_bin_masses_converged_and_match_quadrature(self, params_small):
        d, mu, r, basis, kernel, system = small_setup(params_small, m=96)
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

    def test_far_field_skip_keeps_bin_masses_bit_for_bit(self, params_large):
        # At N = 500 about half the lattice points step onto the grid with
        # mass below 2^-60; skipping their hats must not move a single bit.
        d = derive_diffusion_params(params_large)
        _, system, recon = project_stationary_density(d, params_large.daily_service_prob)
        edges = lattice_edges(params_large.n_servers, default_truncation(params_large))
        skipped = recon.bin_masses(edges)
        far = np.array([system.basis.grid_lo - 400.0, system.basis.grid_hi + 200.0])
        assert np.array_equal(recon.projected(far), np.zeros(2))

        def dense(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            lf = lf_hat_matrix(system.basis, system.kernel, x)
            return _combine_rows(recon.alpha, lf)

        recon.projected = dense
        assert np.array_equal(recon.bin_masses(edges), skipped)

    def test_point_value_does_not_depend_on_its_batch(self, params_large):
        # x near 51.518 at N = 500: its value alone, inside the 14,048-point
        # batch of bin_masses and inside a 7,259-point batch must agree.
        d = derive_diffusion_params(params_large)
        _, system, recon = project_stationary_density(d, params_large.daily_service_prob)
        edges = lattice_edges(params_large.n_servers, default_truncation(params_large))
        batches = []
        evaluate = recon.density

        def recording(x):
            batches.append(np.array(x))
            return evaluate(x)

        recon.density = recording
        recon.bin_masses(edges)
        del recon.density
        (xs,) = batches
        assert xs.size == 14_048
        k = int(np.argmin(np.abs(xs - 51.518)))
        x = float(xs[k])
        for f in (recon.projected, recon.density):
            alone = f(x)
            assert f(xs)[k] == alone
            assert f(xs[k : k + 7_259])[0] == alone
            assert f(xs[k - 3_000 : k + 4_259])[3_000] == alone

    def test_refining_basis_shrinks_bar_residual(self, params_small):
        # Held-out hats, not aligned with either basis: the weighted residual
        # of the stationarity identity must drop as the test space grows.
        d = derive_diffusion_params(params_small)
        mu = params_small.daily_service_prob
        r = proxy_density(d, mu)
        kernel = TransitionKernel(d, mu)

        held_out = [np.array([c - 1.7, c, c + 1.7]) for c in np.linspace(-8.0, 16.0, 9)]
        span = np.linspace(-40.0, 120.0, 60_001)

        def sup_residual(num_elements: int) -> float:
            basis = default_basis(d, num_elements)
            system = assemble_gram(basis, kernel, r)
            recon = RatioReconstruction(system)
            qr = recon.ratio(span) * r(span)
            worst = 0.0
            for nodes in held_out:
                g = np.interp(span, nodes, [0.0, 1.0, 0.0], left=0.0, right=0.0)
                lg = _pf_hats(nodes, 1.7, kernel, span)[1] - g
                worst = max(worst, abs(float(np.trapezoid(lg * qr, span))))
            return worst

        coarse = sup_residual(40)
        fine = sup_residual(80)
        assert fine < coarse


class TestPurePipeline:
    def test_gram_system_is_frozen(self, params_small):
        *_, system = small_setup(params_small, m=16)
        with pytest.raises(FrozenInstanceError):
            system.matrix = np.eye(system.rhs.size)

    def test_reconstructions_of_one_system_agree_bitwise(self, params_small):
        # Each reconstruction solves the system itself; the system stays as
        # assembled, so a second solve gives the same bits.
        *_, system = small_setup(params_small, m=64)
        first, second = RatioReconstruction(system), RatioReconstruction(system)
        assert np.array_equal(first.alpha, second.alpha)
        assert first.residual == second.residual
