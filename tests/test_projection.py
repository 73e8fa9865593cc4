import json
import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg.blas import dgemv
from scipy.special import ndtr

from midnightq import (
    DiffusionParams,
    ModelParams,
    SolverError,
    RatioReconstruction,
    TransitionKernel,
    assemble_gram,
    build_basis,
    derive_diffusion_params,
    dou_stationary_density,
    project_stationary_density,
    proxy_density,
    solve_gram,
    stationary_window,
)
from midnightq import projection
from midnightq.cli import main
from midnightq.compare import lattice_edges
from midnightq.projection import (
    GramSystem,
    _combine_rows,
    _pf_band,
    _pf_windows,
    working_domain,
)

TOY = DiffusionParams(
    drift=0.0, variance=1.0, tail_rate=1.0, gaussian_center=-1.0, ou_variance=1.0
)


# Reach of each point's hat window, in step standard deviations.
REACH_SD = 10.0


def hat_matrix(basis, x):
    """Values of every hat of ``basis`` at the points ``x``; shape (size, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    tent = 1.0 - np.abs(x[None, :] - basis.nodes[:, None]) / basis.width
    inside = (x >= basis.grid_lo) & (x <= basis.grid_hi)
    return np.clip(tent, 0.0, None) * inside[None, :]


def reach_window(basis, kernel, x):
    """(first hat, width) of the window each point of ``x`` evaluates."""
    means, sd = kernel.step_law(x)
    width = min(basis.size, math.ceil(2 * REACH_SD * sd / basis.width) + 2)
    first = np.floor((means - REACH_SD * sd - basis.grid_lo) / basis.width)
    return np.clip(first, 0, basis.size - width), width


def lf_hat_matrix(basis, kernel, x):
    """L applied to every hat (P f - f) at the points ``x``, P f from
    ``_pf_band``: the direct L f, with no element's stencil copied."""
    return projection._lf(basis, kernel, np.atleast_1d(np.asarray(x, dtype=float)), 0)


def system_lf(system):
    """L f at the quadrature nodes of ``system``, as its assembly computed it:
    its order of nodes in each of m elements and 2 Z tail panels."""
    order = system.quad_x.size // (system.basis.num_elements + 2 * int(REACH_SD))
    return projection._lf(system.basis, system.kernel, system.quad_x, order)


def stencil_rounding(system):
    """How far the assembly's L f may sit from P f - f at its own nodes, past
    Phi(-Z): a congested entry is copied from the first congested element,
    and the two sides' node, hat node and step mean (x + drift) are each
    rounded to half an ulp, 8 half-ulps of max|x| in all.  |dP f/dx| <= 1/h,
    since P f(x) = E f(x + drift + sd Z) and each hat is 1/h-Lipschitz.
    """
    largest = np.abs(np.concatenate([system.quad_x, system.basis.nodes])).max()
    return 4 * np.spacing(largest) / system.basis.width


def band_bound(system, lf, delta=ndtr(-REACH_SD)):
    """Bound on |G_ij - dense G_ij| when each entry of ``lf``, the system's
    L f, is within ``delta`` of its dense value: delta (s_i + s_j + delta
    sum w), s_i = sum w |lf_i|.
    """
    s = np.abs(lf) @ system.quad_w
    return delta * (s[:, None] + s[None, :] + delta * system.quad_w.sum())


def _pf_hats(t, h, means, sd):
    """P f of every hat on ``t``, a uniform grid of width ``h``, from every
    point of ``means``: ``_pf_windows`` on all of ``t`` at once; shape
    (len(t), len(means))."""
    pf = np.empty((t.size, means.size))
    for part, _, band in _pf_windows(t, h, means, sd, np.zeros(means.size, np.intp), t.size):
        pf[:, part] = band
    return pf


def dense_lf(system):
    """L f over the whole grid: P f of every hat at every quadrature node."""
    basis, x = system.basis, system.quad_x
    return _pf_hats(basis.nodes, basis.width, *system.kernel.step_law(x)) - hat_matrix(basis, x)


def lattice_projection(params):
    """(system, reconstruction, lattice bin edges) of the default projection."""
    d = derive_diffusion_params(params)
    _, system, recon = project_stationary_density(d, params.daily_service_prob)
    return system, recon, lattice_edges(params.n_servers, stationary_window(params)[1])


def per_piece_rule(basis, edges, order=8):
    """(nodes, weights, bin of each node) of the per-piece rule: each bin
    split at the basis nodes, ``order`` Gauss-Legendre nodes per piece."""
    nodes = basis.nodes
    cuts = np.unique(np.concatenate([edges, nodes[(nodes > edges[0]) & (nodes < edges[-1])]]))
    u, wu = np.polynomial.legendre.leggauss(order)
    width = np.diff(cuts)[:, None]
    bins = np.searchsorted(edges, cuts[:-1], side="right") - 1
    return ((cuts[:-1, None] + width * ((u + 1.0) / 2.0)).ravel(), (width * (wu / 2.0)).ravel(),
            np.repeat(bins, order))


def per_piece_masses(recon, edges, order):
    """Bin masses of the clipped density by ``per_piece_rule``."""
    x, w, bins = per_piece_rule(recon._system.basis, edges, order)
    mass = w * np.clip(recon.density(x), 0.0, None)
    return np.bincount(bins, weights=mass, minlength=edges.size - 1)


def unskipped_projected(recon, x):
    """``recon.projected`` with every point evaluated through ``_pf_band``."""
    basis, kernel, alpha = recon._system.basis, recon._system.kernel, recon.alpha
    g = np.interp(x, basis.nodes, alpha, left=0.0, right=0.0)
    out = np.empty(x.size)
    for part, rows, pf in _pf_band(basis, *kernel.step_law(x)):
        out[part] = _combine_rows(alpha[rows], pf) - g[part]
    return out


def _piece_integrals(breaks, means, sd):
    """Reference (I0, I1) per piece of ``breaks`` and mean, in the form the
    fused kernel replaced: the cdf left of the mean and the survival function
    right of it, each built from the one tail ndtr(-|z|)."""
    z = (breaks.reshape(breaks.shape[0], -1) - means) / sd
    tail = ndtr(-np.abs(z))
    rest = 1.0 - tail
    right = z > 0.0
    cdf = np.where(right, rest, tail)
    sf = np.where(right, tail, rest)
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    use_sf = (z[:-1] + z[1:]) > 0.0
    i0 = np.where(use_sf, sf[:-1] - sf[1:], cdf[1:] - cdf[:-1])
    i1 = means * i0 + sd * (pdf[:-1] - pdf[1:])
    return i0, i1


def reference_pf_hats(t, h, means, sd):
    """P f of every hat on the breaks ``t`` (shape (n_breaks,) or one column
    per mean) from the reference piece integrals; shape (n_breaks, len(means))."""
    t = t.reshape(t.shape[0], -1)
    i0, i1 = _piece_integrals(t, means, sd)
    pf = np.zeros((t.shape[0], means.size))
    pf[1:] += (i1 - t[:-1] * i0) / h
    pf[:-1] += (t[1:] * i0 - i1) / h
    return pf


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (signed zeros and nans included)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def small_setup(params, m=64):
    d = derive_diffusion_params(params)
    mu = params.daily_service_prob
    r = proxy_density(d, mu)
    basis = build_basis(*working_domain(d), m)
    kernel = TransitionKernel(d, mu)
    system = assemble_gram(basis, kernel, r)
    return d, mu, r, basis, kernel, system


def dou_setup(m):
    """(reference, kernel, basis of ``m`` elements) of the always-pulled
    recursion, whose exact stationary Gaussian is the reference: the true
    ratio is identically one."""
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
    lo, hi = dou.mean - 6 * dou.sd, dou.mean + 6 * dou.sd
    h = (hi - lo) / m
    lo = -round(-lo / h) * h
    return dou, kernel, build_basis(lo, lo + m * h, m)


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

    def test_grid_missing_zero_shifted(self):
        # (-2.5, 9) with 4 elements of 2.875: the nearest node, -2.5 + 2.875,
        # moves onto zero, so the domain shifts left by 0.375.
        basis = build_basis(-2.5, 9, 4)
        assert 0.0 in basis.nodes
        assert basis.width == (basis.grid_hi - basis.grid_lo) / 4
        assert abs(basis.grid_lo + 2.5) < basis.width
        assert np.array_equal(basis.nodes, np.arange(-1, 4) * 2.875)

    def test_domain_must_straddle_zero(self):
        with pytest.raises(ValueError, match="straddle"):
            build_basis(1.0, 9.0, 8)

    @pytest.mark.parametrize("tail_rate", [0.0, -0.5])
    def test_default_domain_needs_a_positive_tail_rate(self, tail_rate):
        d = DiffusionParams(drift=0.25, variance=1.0, tail_rate=tail_rate, gaussian_center=1.0,
                            ou_variance=1.0)
        with pytest.raises(ValueError) as err:
            working_domain(d)
        assert str(err.value) == "default domain needs a stable regime (positive tail rate)"

    def test_too_few_elements_rejected(self):
        with pytest.raises(ValueError, match="elements"):
            build_basis(-4, 4, 3)

    def test_partition_of_unity_at_random_points(self):
        basis = build_basis(-7, 13, 40)
        rng = np.random.default_rng(1)
        xs = rng.uniform(-7, 13, 1000)
        total = hat_matrix(basis, xs).sum(axis=0)
        assert np.abs(total - 1.0).max() <= 1e-12

    def test_hats_vanish_outside_domain(self):
        basis = build_basis(-7, 13, 40)
        outside = np.array([-7.5, 13.5, -100.0, 40.0])
        assert np.all(hat_matrix(basis, outside) == 0.0)

    @pytest.mark.parametrize("m", [4, 64, 160, 1200])
    @pytest.mark.parametrize("n, lam", [(18, 3.03), (66, 11.37), (500, 90.95)])
    def test_default_domain_nodes_keep_their_bits(self, n, lam, m):
        # The reference is the two-step rule that built default bases before
        # build_basis placed zero itself: snap the left end onto a node,
        # then rebuild the width from the snapped ends.
        d = derive_diffusion_params(ModelParams.from_mean_los(n, lam, 5.3))
        lo, hi = working_domain(d)
        h = (hi - lo) / m
        j0 = min(max(round(-lo / h), 1), m - 1)
        lo = -j0 * h
        hi = lo + m * h
        h = (hi - lo) / m
        reference = (np.arange(m + 1) - round(-lo / h)) * h
        assert same_bits(build_basis(*working_domain(d), m).nodes, reference)

    def test_default_basis_pins_zero(self, params_small):
        d = derive_diffusion_params(params_small)
        basis = build_basis(*working_domain(d), 64)
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
        lf = _pf_hats(t, 0.5, *kernel.step_law(xs)).sum(axis=0) - 1.0
        assert np.abs(lf).max() <= 1e-12

    def test_hat_gaussian_overlap_matches_quadrature(self):
        # Standard-normal step (drift 0, variance 1) applied to the unit hat.
        kernel = TransitionKernel(TOY, 0.5)
        oracle, err = quad(
            lambda y: (1.0 - abs(y)) * math.exp(-0.5 * y * y) / math.sqrt(2 * math.pi), -1, 1
        )
        assert err < 1e-12
        assert oracle == pytest.approx(0.3687463803725073, abs=1e-12)
        pf = _pf_hats(np.array([-1.0, 0.0, 1.0]), 1.0, *kernel.step_law(np.array([0.0])))
        assert pf[1, 0] == pytest.approx(oracle, abs=1e-13)

    def test_far_state_sees_no_mass(self):
        kernel = TransitionKernel(TOY, 0.5)
        pf = _pf_hats(np.array([-1.0, 0.0, 1.0]), 1.0, *kernel.step_law(np.array([-200.0, 200.0])))
        assert np.all(pf[1] <= 1e-9)

    def test_matches_hat_matrix_row_by_row(self, params_small):
        d = derive_diffusion_params(params_small)
        kernel = TransitionKernel(d, params_small.daily_service_prob)
        basis = build_basis(*working_domain(d), 16)
        xs = np.linspace(basis.grid_lo - 5, basis.grid_hi + 5, 73)
        lf = lf_hat_matrix(basis, kernel, xs)
        for i in (0, 1, 8, 16):
            # hat i alone: its own nodes, one to each side inside the grid
            nodes = basis.nodes[max(i - 1, 0) : i + 2]
            values = (nodes == basis.nodes[i]).astype(float)
            hat = np.interp(xs, nodes, values, left=0.0, right=0.0)
            expected = values @ _pf_hats(nodes, basis.width, *kernel.step_law(xs)) - hat
            assert np.abs(lf[i] - expected).max() <= 1e-13

    def test_one_ndtr_piece_integrals_match_two_ndtr_formula(self, params_small):
        d = derive_diffusion_params(params_small)
        breaks = build_basis(*working_domain(d), 160).nodes
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
        basis = build_basis(*working_domain(d), 160)
        t = basis.nodes
        xs = np.concatenate(
            [
                t,  # every node, both grid ends included
                np.nextafter(t, -np.inf),
                np.nextafter(t, np.inf),
                np.linspace(t[0] - 30.0, t[-1] + 30.0, 5001),
            ]
        )
        dense = _pf_hats(t, basis.width, *kernel.step_law(xs)) - hat_matrix(basis, xs)
        lf = lf_hat_matrix(basis, kernel, xs)
        assert np.all(np.abs(lf - dense) <= ndtr(-REACH_SD))
        # Inside each point's window, but for its two end rows, P f is the
        # same computation as over the whole grid.
        rows = np.arange(basis.size)[:, None]
        first, width = reach_window(basis, kernel, xs)
        inner = (rows > first) & (rows < first + width - 1)
        assert np.array_equal(lf[inner], dense[inner])
        # Outside it P f is not evaluated: only the hat itself is left.
        outside = (rows < first) | (rows >= first + width)
        assert np.array_equal(lf[outside], -hat_matrix(basis, xs)[outside])


# How many of the first step means of ``kernel_means`` are special ones.
SPECIAL_MEANS = 11


def kernel_means(t, sd):
    """513 step means for the breaks ``t``, the special ones first: on a
    node (z = 0 at a break), an ulp to each side of one, left and right of
    every window, nan; then a spread over the grid and past it."""
    specials = np.array([
        t[7], 0.0, t[0], t[-1], np.nextafter(t[7], -np.inf), np.nextafter(t[7], np.inf),
        t[0] - 12.0 * sd, t[-1] + 12.0 * sd, t[0] - 1000.0, math.nan, 0.5 * (t[3] + t[4]),
    ])
    spread = np.linspace(t[0] - 15.0 * sd, t[-1] + 15.0 * sd, 513 - SPECIAL_MEANS)
    return np.concatenate([specials, spread])


class TestFusedKernel:
    """The batched kernel against the reference piece integrals, bit for bit."""

    @pytest.fixture
    def grid(self, params_small):
        d = derive_diffusion_params(params_small)
        basis = build_basis(*working_domain(d), 160)
        assert 0.0 in basis.nodes
        return basis, math.sqrt(d.variance)

    @staticmethod
    def batches(basis, sd, count):
        means = kernel_means(basis.nodes, sd)
        if count > 1:
            return [means[:count]]
        # One point alone, each special mean in turn.
        return [means[i : i + 1] for i in range(SPECIAL_MEANS)]

    @pytest.mark.parametrize("count", [1, 511, 512, 513])
    def test_shared_breaks_match_reference(self, grid, count):
        basis, sd = grid
        t, h = basis.nodes, basis.width
        for means in self.batches(basis, sd, count):
            assert same_bits(_pf_hats(t, h, means, sd), reference_pf_hats(t, h, means, sd))

    @pytest.mark.parametrize("count", [1, 511, 512, 513])
    def test_windows_match_reference(self, grid, count):
        basis, sd = grid
        for means in self.batches(basis, sd, count):
            first = np.fmax(np.floor((means - REACH_SD * sd - basis.grid_lo) / basis.width), 0)
            seen = 0
            for part, rows, pf in _pf_band(basis, means, sd):
                assert part.start == seen and part.stop - part.start <= 512
                seen = part.stop
                width = rows.shape[0]
                lowest = np.fmin(first[part], basis.size - width)
                assert np.array_equal(rows, lowest + np.arange(width)[:, None])
                reference = reference_pf_hats(basis.nodes[rows], basis.width, means[part], sd)
                assert same_bits(pf, reference)
            assert seen == means.size

    def test_special_means_take_both_straddle_branches(self, grid):
        # The piece that holds the mean takes (1 - tail_a) - tail_b when
        # z_a + z_b > 0 and (1 - tail_b) - tail_a otherwise: both occur.
        basis, sd = grid
        t = basis.nodes
        means = kernel_means(t, sd)
        k = np.searchsorted(t, means, side="right") - 1
        inside = np.flatnonzero((k >= 0) & (k < t.size - 1))
        za = (t[k[inside]] - means[inside]) / sd
        zb = (t[k[inside] + 1] - means[inside]) / sd
        assert np.any(za == 0.0)
        assert np.any(za + zb > 0.0) and np.any(za + zb <= 0.0)
        assert np.any(k < 0) and np.any(k >= t.size - 1) and np.isnan(means).any()


class TestAssembleGram:
    @pytest.mark.parametrize("name", ["params_small", "params_large"])
    @pytest.mark.parametrize("m", [160, 400, 1200])
    def test_peak_memory_is_one_lf(self, request, name, m):
        # The whole pipeline, assembly and solve, holds no more than what the
        # budget counts, L f (weighted in place and kept) and two Gram
        # arrays, plus one batch of the hat kernel's five work arrays.  No
        # second copy of L f, and no third Gram array.
        params = request.getfixturevalue(name)
        d = derive_diffusion_params(params)
        tracemalloc.start()
        try:
            basis, system, _ = project_stationary_density(d, params.daily_service_prob,
                                                          num_elements=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        q, width = system.quad_x.size, reach_window(basis, system.kernel, 0.0)[1]
        batch = width * min(q, projection._CHUNK)
        assert peak <= 8 * (basis.size * (q + 2 * basis.size) + 5 * batch)

    def test_reference_scale_overflowing_the_rhs_norm_is_refused(self, params_small):
        # At 1e200 the Gram entries stay finite but the rhs norm overflows;
        # its infinite tolerance would accept a residual of inf.
        _, _, r, basis, kernel, _ = small_setup(params_small, m=160)
        with np.errstate(over="ignore"), pytest.raises(SolverError) as err:
            assemble_gram(basis, kernel, lambda x: 1e200 * r(x))
        assert str(err.value) == "non-finite Gram entries; check the reference density scale"

    def test_large_reference_scale_leaves_the_density(self, params_small):
        # The density r (1 - projected) / norm_sq does not depend on r's scale.
        _, _, r, basis, kernel, system = small_setup(params_small, m=160)
        scaled = assemble_gram(basis, kernel, lambda x: 1e100 * r(x))
        x = np.linspace(basis.grid_lo, basis.grid_hi, 321)
        base = RatioReconstruction(system).density(x)
        assert math.isfinite(scaled.rhs_scale)
        assert np.abs(RatioReconstruction(scaled).density(x) - base).max() <= 1e-12 * base.max()

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
        weighted = system_lf(system) * np.sqrt(system.quad_w)[None, :]
        dense = weighted @ weighted.T
        assert np.abs(a - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_quadrature_refinement_is_converged(self, params_small, monkeypatch):
        # Every entry either moves by < 1e-9 relative under the doubled order
        # or sits at the float64 roundoff floor of its own absolute-value sums.
        *_, base = small_setup(params_small, m=64)
        monkeypatch.setattr(projection, "_ORDER", 2 * projection._ORDER)
        *_, fine = small_setup(params_small, m=64)
        assert fine.quad_x.size == 16 * (64 + 2 * 10)
        eps = np.finfo(float).eps

        lf = system_lf(base)
        abs_weighted = np.abs(lf) * np.sqrt(base.quad_w)
        matrix_noise = 100.0 * eps * (abs_weighted @ abs_weighted.T)
        matrix_diff = np.abs(base.matrix - fine.matrix)
        # Or it sits below what each system's band may leave out of it.
        band_gap = 2.0 * band_bound(base, lf)
        ok = (
            (matrix_diff <= 1e-9 * np.abs(base.matrix))
            | (matrix_diff <= matrix_noise)
            | (matrix_diff <= band_gap)
        )
        assert ok.all()

        rhs_noise = 100.0 * eps * (np.abs(lf) @ base.quad_w)
        rhs_diff = np.abs(base.rhs - fine.rhs)
        ok = (rhs_diff <= 1e-9 * np.abs(base.rhs)) | (rhs_diff <= rhs_noise)
        assert ok.all()

    @pytest.mark.parametrize("m", [64, 160])
    @pytest.mark.parametrize("name", ["params_small", "params_large"])
    def test_nodes_are_the_ones_the_budget_counts(self, request, monkeypatch, name, m):
        # m elements and _REACH_SD panels per tail, _ORDER nodes each, always:
        # q = 8 (m + 20), the q of the refusal's 8 (m + 1) (q + 2 m + 2) bytes.
        params = request.getfixturevalue(name)
        counted = []
        monkeypatch.setattr(projection, "check_budget", lambda needed, *_: counted.append(needed))
        d = derive_diffusion_params(params)
        _, system, _ = project_stationary_density(d, params.daily_service_prob, num_elements=m)
        (needed,) = counted
        assert system.quad_x.size == 8 * (m + 20) == needed // (8 * (m + 1)) - 2 * m - 2

    def test_quadrature_orders_are_read_in_one_place(self, params_small, monkeypatch):
        # The assembly, its budget refusal and domain_mass's core nodes all
        # follow the one module constant: q = 4 (m + 20) at order 4.
        counted = []
        monkeypatch.setattr(projection, "check_budget", lambda needed, *_: counted.append(needed))
        monkeypatch.setattr(projection, "_ORDER", 4)
        d = derive_diffusion_params(params_small)
        m = 64
        _, system, recon = project_stationary_density(d, params_small.daily_service_prob,
                                                      num_elements=m)
        (needed,) = counted
        assert system.quad_x.size == 4 * (m + 20) == needed // (8 * (m + 1)) - 2 * m - 2
        core = system.quad_x[: 4 * m]
        assert (core > system.basis.grid_lo).all() and (core < system.basis.grid_hi).all()
        assert system.quad_x[4 * m] < system.basis.grid_lo
        raw = system.quad_w[: 4 * m] @ recon.ratio(core)
        assert recon.domain_mass()[0] == pytest.approx(raw, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m", [64, 160])
    def test_dou_reference_takes_the_same_nodes(self, m):
        dou, kernel, basis = dou_setup(m)
        assert assemble_gram(basis, kernel, dou).quad_x.size == 8 * (m + 20)

    def test_reference_need_not_have_a_cdf(self, params_small):
        # The proxy's cdf is never read: a bare callable assembles the same bits.
        *_, r, basis, kernel, system = small_setup(params_small)
        bare = assemble_gram(basis, kernel, lambda x: r(x))
        for field in ("matrix", "rhs", "quad_x", "quad_w"):
            assert same_bits(getattr(bare, field), getattr(system, field)), field
        assert bare.rhs_scale == system.rhs_scale

    def test_overflowing_reference_names_element(self, params_small):
        d = derive_diffusion_params(params_small)
        basis = build_basis(*working_domain(d), 16)
        kernel = TransitionKernel(d, params_small.daily_service_prob)

        def exploding(x):
            return np.exp(np.asarray(x, dtype=float) ** 4)

        with np.errstate(over="ignore"):
            with pytest.raises(SolverError, match="element"):
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
        rhs_scale=rhs_scale,
        weighted_lf=np.zeros((len(rhs), 0)),
    )


class TestSolveGram:
    def test_identity_system(self):
        rhs = np.array([1.0, -2.0, 0.5])
        system = synthetic_system(np.eye(3), rhs)
        alpha, residual, *_ = solve_gram(system)
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
        alpha_solver, *_ = solve_gram(system)
        null_vec = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)
        assert np.abs(a @ null_vec).max() <= 1e-12 * np.abs(a).max()

        for other in (alpha_solver, alpha_min + 0.7 * null_vec):
            diff = (alpha_min - other) @ lf
            weighted_norm = math.sqrt(float(w @ diff**2))
            assert weighted_norm <= 1e-10

    def test_indefinite_system_raises(self):
        with pytest.raises(SolverError, match="residual") as err:
            solve_gram(synthetic_system(np.diag([1.0, -1.0]), np.array([1.0, 1.0])))
        assert err.value.residual == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "n, lam, mean_los, elements",
        [(1808, 391.05, 4.193, 90), (1423, 32.58, 40.15, 319)],
    )
    def test_sweep_systems_meet_the_residual_floor(self, n, lam, mean_los, elements):
        # Stable systems for which a random sweep once found the residual just
        # above the tolerance floor; the one pivoted Cholesky of the scaled
        # Gram must stay within it.
        params = ModelParams.from_mean_los(n, lam, mean_los)
        *_, system = small_setup(params, m=elements)
        alpha, *_ = solve_gram(system)
        tol = 100.0 * np.finfo(float).eps * system.rhs_scale
        assert np.linalg.norm(system.matrix @ alpha - system.rhs) <= tol

    def test_rank_zero_system_raises(self):
        # No hat of positive diagonal: nothing is factored, so nothing is reported.
        with pytest.raises(SolverError, match="no positive diagonal"):
            solve_gram(synthetic_system(np.zeros((2, 2)), np.zeros(2)))

    def test_inconsistent_system_raises_with_residual(self):
        a = np.diag([1.0, 0.0])
        b = np.array([0.0, 1.0])
        with pytest.raises(SolverError) as err:
            solve_gram(synthetic_system(a, b))
        assert err.value.residual == pytest.approx(1.0, abs=1e-6)


class TestReconstruction:
    def test_orthogonality_at_solution(self, params_small):
        *_, system = small_setup(params_small, m=96)
        alpha, *_ = solve_gram(system)
        gap = np.abs(system.matrix @ alpha - system.rhs).max()
        assert gap <= 1e-8

    def test_system_without_quadrature_nodes_refused(self):
        with pytest.raises(ValueError, match="no quadrature nodes"):
            RatioReconstruction(synthetic_system(np.eye(2), np.ones(2)))

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

    @pytest.mark.parametrize("name", ["params_small", "params_medium", "params_large"])
    def test_remainder_norm_and_node_masses_share_one_remainder(self, request, name):
        # rho = sqrt(w) - (sqrt(w) L f)^T alpha at the Gram nodes: norm_sq is
        # rho . rho and the node masses are sqrt(w) rho / norm_sq, bit for bit.
        system, recon, _ = lattice_projection(request.getfixturevalue(name))
        root_w = np.sqrt(system.quad_w)
        rho = root_w - dgemv(1.0, system.weighted_lf.T, recon.alpha)
        assert recon.norm_sq == rho @ rho
        assert same_bits(recon.node_mass, root_w * rho / recon.norm_sq)

    @pytest.mark.parametrize("weight", [1.0, math.nan])
    def test_remainder_norm_not_positive_refused(self, weight):
        # One node whose L f is the constant function: the remainder is 0,
        # and with a NaN weight it is NaN; neither norm is positive.
        system = replace(synthetic_system([[1.0]], [1.0]), quad_w=np.array([weight]),
                         weighted_lf=np.ones((1, 1)))
        with pytest.raises(SolverError, match="nonpositive remainder norm"):
            RatioReconstruction(system)

    def test_dou_reference_recovers_unit_ratio(self):
        dou, kernel, basis = dou_setup(64)
        system = assemble_gram(basis, kernel, dou)
        recon = RatioReconstruction(system)
        grid = np.linspace(dou.mean - 3 * dou.sd, dou.mean + 3 * dou.sd, 241)
        assert np.abs(recon.ratio(grid) - 1.0).max() <= 0.05

    def test_bin_masses_converged_and_match_quadrature(self, params_small, monkeypatch):
        d, mu, r, basis, kernel, system = small_setup(params_small, m=96)
        recon = RatioReconstruction(system)
        edges = np.arange(-20.5, 60.5)
        coarse = recon.bin_masses(edges)
        monkeypatch.setattr(projection, "_ORDER", 64)
        fine = RatioReconstruction(small_setup(params_small, m=96)[-1]).bin_masses(edges)
        assert abs(coarse.sum() - fine.sum()) <= 1e-10
        # independent adaptive quadrature on one interior bin
        a, b = 2.5, 3.5
        oracle, _ = quad(lambda x: max(recon.density(x), 0.0), a, b, limit=200)
        idx = int(a - edges[0])
        assert coarse[idx] == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("name", ["params_small", "params_medium", "params_large"])
    def test_one_order_agrees_with_four_times_it(self, request, monkeypatch, name):
        # The same system with 4 _ORDER nodes on every panel: lattice bin
        # masses within 1e-12 TV, and the density within 2e-8 relative where
        # it is above 1e-6 of its peak.  That is the Gram solve's
        # least-squares noise (ROADMAP item 5), not quadrature error.
        params = request.getfixturevalue(name)
        results = []
        for order in (projection._ORDER, 4 * projection._ORDER):
            monkeypatch.setattr(projection, "_ORDER", order)
            system, recon, edges = lattice_projection(params)
            grid = np.linspace(system.basis.grid_lo, system.basis.grid_hi, 2001)
            results.append((recon.bin_masses(edges), recon.density(grid)))
        (bins, density), (ref_bins, ref_density) = results
        assert 0.5 * np.abs(bins - ref_bins).sum() <= 1e-12
        big = ref_density > 1e-6 * ref_density.max()
        assert (np.abs(density - ref_density)[big] <= 2e-8 * ref_density[big]).all()

    def test_far_field_skip_keeps_bin_masses_bit_for_bit(self, request, monkeypatch):
        # Thousands of lattice points step beyond the grid's reach; skipping
        # them must not move a single bit of the bin masses.
        for name in ("params_small", "params_medium", "params_large"):
            params = request.getfixturevalue(name)
            system, recon, edges = lattice_projection(params)
            skipped = recon.bin_masses(edges)
            far = np.array([system.basis.grid_lo - 400.0, system.basis.grid_hi + 200.0])
            assert np.array_equal(recon.projected(far), np.zeros(2))
            with monkeypatch.context() as patch:
                patch.setattr(recon, "projected", lambda x: unskipped_projected(recon, x))
                assert np.array_equal(recon.bin_masses(edges), skipped), name

    def test_skipped_points_step_beyond_reach_of_the_grid(self, request, monkeypatch):
        # Record the step means that reach _pf_band from the density at the
        # per-piece rule's lattice points: every other point must be off the
        # grid, its 10-sd reach must miss the grid, and its value, evaluated
        # anyway, must be below 2^-60.
        for name in ("params_small", "params_medium", "params_large"):
            params = request.getfixturevalue(name)
            system, recon, edges = lattice_projection(params)
            x = per_piece_rule(system.basis, edges)[0]
            evaluated = []

            def recording_band(basis, means, sd):
                evaluated.append(np.array(means))
                return _pf_band(basis, means, sd)

            with monkeypatch.context() as patch:
                patch.setattr(projection, "_pf_band", recording_band)
                recon.density(x)
            means, sd = system.kernel.step_law(x)
            skipped = ~np.isin(means, np.concatenate(evaluated))
            assert skipped.sum() > 1000, name
            lo, hi = system.basis.grid_lo, system.basis.grid_hi
            assert np.all((x[skipped] < lo) | (x[skipped] > hi))
            reach = REACH_SD * sd
            assert np.all((means[skipped] + reach < lo) | (means[skipped] - reach > hi))
            assert np.all(np.abs(unskipped_projected(recon, x[skipped])) < 2.0**-60)

    def test_point_value_does_not_depend_on_its_batch(self, params_large):
        # x near 51.518 at N = 500: its value alone, inside the 14,048 points
        # of the per-piece rule on the lattice 0..1,594 and inside a
        # 7,259-point batch must agree.
        d = derive_diffusion_params(params_large)
        _, system, recon = project_stationary_density(d, params_large.daily_service_prob)
        edges = lattice_edges(params_large.n_servers, 1594)
        xs = per_piece_rule(system.basis, edges)[0]
        assert xs.size == 14_048
        k = int(np.argmin(np.abs(xs - 51.518)))
        x = float(xs[k])
        for f in (recon.projected, recon.density):
            alone = f(x)
            assert f(xs)[k] == alone
            assert f(xs[k : k + 7_259])[0] == alone
            assert f(xs[k - 3_000 : k + 4_259])[3_000] == alone

    def test_nan_point_has_nan_density(self, params_small):
        d = derive_diffusion_params(params_small)
        _, _, recon = project_stationary_density(d, params_small.daily_service_prob)
        values = recon.density(np.array([math.nan, 0.0]))
        assert math.isnan(values[0]) and values[1] > 0.0

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
            basis = build_basis(*working_domain(d), num_elements)
            system = assemble_gram(basis, kernel, r)
            recon = RatioReconstruction(system)
            qr = recon.ratio(span) * r(span)
            worst = 0.0
            for nodes in held_out:
                g = np.interp(span, nodes, [0.0, 1.0, 0.0], left=0.0, right=0.0)
                lg = _pf_hats(nodes, 1.7, *kernel.step_law(span))[1] - g
                worst = max(worst, abs(float(np.trapezoid(lg * qr, span))))
            return worst

        coarse = sup_residual(40)
        fine = sup_residual(80)
        assert fine < coarse


class TestBinMasses:
    """Bin masses from the Gram's node masses inside its panels, and by the
    per-piece rule only beyond them."""

    @pytest.mark.parametrize("name", ["params_small", "params_medium", "params_large"])
    def test_lattice_masses_match_a_32_point_per_piece_reference(self, request, name):
        # The interpolant of the 8 node masses of each panel against the
        # per-piece rule at 32 points; the pieces beyond the panels carry up
        # to 1.3e-7 (N = 18), so they cannot be left out.
        system, recon, edges = lattice_projection(request.getfixturevalue(name))
        reference = per_piece_masses(recon, edges, 32)
        assert 0.5 * np.abs(recon.bin_masses(edges) - reference).sum() <= 1e-13

    def test_every_bin_mass_is_nonnegative(self, request):
        # At N = 100, lambda = 30, mu = 0.5 a piece's interpolant integral
        # comes out at -2.4e-19 before its clip.
        names = ("params_small", "params_medium", "params_large")
        for params in (*map(request.getfixturevalue, names), ModelParams(100, 30.0, 0.5)):
            _, recon, edges = lattice_projection(params)
            assert (recon.bin_masses(edges) >= 0.0).all(), params

    @pytest.mark.parametrize("name", ["params_small", "params_medium", "params_large"])
    def test_coarse_basis_interpolant_is_within_its_discretization_error(self, request, name):
        # At 8 and 20 elements the interpolant moves the lattice masses from
        # the 8-point per-piece rule by at least 20 times less than that rule
        # is from a 640-element projection (43 times less at N = 18, m = 8).
        params = request.getfixturevalue(name)
        d, mu = derive_diffusion_params(params), params.daily_service_prob
        edges = lattice_projection(params)[2]
        fine = project_stationary_density(d, mu, num_elements=640)[2].bin_masses(edges)
        for m in (8, 20):
            recon = project_stationary_density(d, mu, num_elements=m)[2]
            per_piece = per_piece_masses(recon, edges, 8)
            moved = 0.5 * np.abs(recon.bin_masses(edges) - per_piece).sum()
            assert moved <= 5e-2 * 0.5 * np.abs(per_piece - fine).sum(), m

    def test_whole_elements_take_the_clipped_node_masses(self):
        # Four elements at load 0.97 and a 20-day stay: the density dips
        # below zero inside two elements.  A bin that is one whole element
        # takes the element's Gauss rule on the clipped density, and the
        # elements add up to the raw plus the clipped-away mass.
        params = ModelParams.from_mean_los(18, 0.97 * 18 / 20.0, 20.0)
        basis, system, recon = project_stationary_density(
            derive_diffusion_params(params), params.daily_service_prob, num_elements=4)
        raw, clipped = recon.domain_mass()
        assert clipped > 1e-3
        masses = recon.bin_masses(basis.nodes)
        x, w = system.quad_x[:32], system.quad_w[:32]
        gauss = np.clip(w * recon.ratio(x), 0.0, None).reshape(4, 8).sum(axis=1)
        assert np.abs(masses - gauss).max() <= 1e-11
        assert masses.sum() == pytest.approx(raw + clipped, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("name", ["params_small", "params_large"])
    def test_inside_the_panels_nothing_is_evaluated(self, request, monkeypatch, name):
        # Only the lattice bins beyond the outermost panels reach the
        # density: _pf_windows runs on none of the points inside them, and
        # domain_mass evaluates nothing.
        system, recon, edges = lattice_projection(request.getfixturevalue(name))
        step_sd = system.kernel.step_law(0.0)[1]
        lowest = system.basis.grid_lo - REACH_SD * step_sd
        highest = system.basis.grid_hi + REACH_SD * step_sd
        seen = []
        evaluate = recon.density

        def recording(x):
            seen.append(np.array(x))
            return evaluate(x)

        monkeypatch.setattr(recon, "density", recording)
        recon.bin_masses(edges)
        (x,) = seen
        assert ((x < lowest + 1e-9) | (x > highest - 1e-9)).all()
        monkeypatch.setattr(projection, "_pf_windows", None)
        recon.domain_mass()


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


@pytest.fixture(scope="module", params=["params_small", "params_medium", "params_large"])
def benchmark_system(request):
    """(params, Gram system) of the default projection of a benchmark system."""
    params = request.getfixturevalue(request.param)
    d = derive_diffusion_params(params)
    _, system, _ = project_stationary_density(d, params.daily_service_prob)
    return params, system


def block_gap(a, b, rows=128):
    """max |a - b|, ``rows`` rows at a time."""
    return max(np.abs(a[i:i + rows] - b[i:i + rows]).max() for i in range(0, a.shape[0], rows))


class TestStencil:
    @pytest.mark.parametrize("name, m, domain", [
        ("params_small", 160, None), ("params_medium", 160, None), ("params_large", 160, None),
        ("params_medium", 4, None), ("params_medium", 1200, None),
        ("params_small", 160, (-10.0, 30.0)), ("params_large", 160, (-10.0, 30.0)),
        ("params_small", 160, (-3.0, 4.0)), ("params_large", 160, (-3.0, 4.0)),
    ])
    def test_assembly_lf_is_within_1e_13_of_lf_hat_matrix(self, request, monkeypatch,
                                                          name, m, domain):
        # On (-3, 4) a step's 10-sd reach spans more than the whole grid.
        params = request.getfixturevalue(name)
        d = derive_diffusion_params(params)
        kernel = TransitionKernel(d, params.daily_service_prob)
        basis = build_basis(*working_domain(d, *(domain or ())), m)
        x = projection._panels(*projection._gram_panels(basis, kernel))[0]
        banded = []

        def recording_band(basis, means, sd):
            banded.append(means.size)
            return _pf_band(basis, means, sd)

        with monkeypatch.context() as patch:
            patch.setattr(projection, "_pf_band", recording_band)
            lf = projection._lf(basis, kernel, x, projection._ORDER)
        # The congested side was copied, not evaluated hat by hat.
        assert sum(banded) < x.size - projection._ORDER
        assert block_gap(lf, lf_hat_matrix(basis, kernel, x)) <= 1e-13

    def test_pulled_kernel_gets_the_direct_lf_bit_for_bit(self):
        # The always-pulled kernel steps from no state as from itself, so no
        # element is congested and every node goes through _pf_band.
        dou, kernel, basis = dou_setup(64)
        system = assemble_gram(basis, kernel, dou)
        direct = lf_hat_matrix(basis, kernel, system.quad_x)
        assert np.array_equal(system_lf(system), direct)
        assert np.array_equal(system.weighted_lf, direct * np.sqrt(system.quad_w))


class TestHatBand:
    def test_lf_and_gram_are_within_the_band_bound_of_dense(self, benchmark_system):
        # Each entry of the assembly's L f is within Phi(-Z) of its window's
        # P f, plus the stencil's rounding on the congested side.
        _, system = benchmark_system
        lf, dense = system_lf(system), dense_lf(system)
        entry = ndtr(-REACH_SD) + stencil_rounding(system)
        assert np.abs(lf - dense).max() <= entry
        root_w = np.sqrt(system.quad_w)
        weighted = dense * root_w
        abs_weighted = np.abs(dense) * root_w
        floor = 100.0 * np.finfo(float).eps * (abs_weighted @ abs_weighted.T)
        gap = np.abs(system.matrix - weighted @ weighted.T)
        assert np.all(gap <= band_bound(system, lf, entry) + floor)

    def test_projected_is_p_g_minus_g(self, benchmark_system):
        # Per point, P g - g over its own hat window must agree with the
        # combination of every row of L f to a few roundings of its terms.
        _, system = benchmark_system
        basis, recon = system.basis, RatioReconstruction(system)
        x = np.concatenate(
            [np.linspace(basis.grid_lo - 30.0, basis.grid_hi + 30.0, 7001), basis.nodes]
        )
        lf = lf_hat_matrix(basis, system.kernel, x)
        dense = _combine_rows(recon.alpha, lf)
        terms = _combine_rows(np.abs(recon.alpha), np.abs(lf))
        gap = np.abs(recon.projected(x) - dense)
        assert np.all(gap <= 64 * np.finfo(float).eps * terms + 2.0**-60)

    def test_lf_holds_no_subnormal_entry(self, benchmark_system):
        _, system = benchmark_system
        lf = system_lf(system)
        tiny = np.abs(lf) < np.finfo(float).tiny
        assert np.all(lf[tiny] == 0.0)

    def test_printed_condition_matches_dense_reference(self, benchmark_system, capsys):
        # The 1-norm condition of the matrix the solve factors: the dense
        # Gram, each hat scaled to unit diagonal (every diagonal is positive
        # here, and the factor keeps every hat).
        params, system = benchmark_system
        args = ["projection", "--n", str(params.n_servers),
                "--lambda", repr(params.daily_arrival_rate),
                "--mu", repr(params.daily_service_prob), "--format", "json"]
        assert printed_condition_and_rank(args, capsys) == (dense_condition(system, 161), 161)

    def test_low_load_condition_is_of_the_kept_hats(self, capsys):
        # 130 of the 161 hats carry no weight, and the factor keeps the other 31.
        params = ModelParams(100, 0.1, 0.5)
        d = derive_diffusion_params(params)
        _, system, _ = project_stationary_density(d, params.daily_service_prob)
        args = ["projection", "--n", "100", "--lambda", "0.1", "--mu", "0.5", "--format", "json"]
        assert printed_condition_and_rank(args, capsys) == (dense_condition(system, 31), 31)


def dense_condition(system, kept):
    """np.linalg.cond(., 1) to 6 digits of the dense Gram's block of positive
    diagonal, scaled to unit diagonal; that block has ``kept`` hats."""
    weighted = dense_lf(system) * np.sqrt(system.quad_w)
    gram = weighted @ weighted.T
    positive = np.flatnonzero(np.diag(gram) > 0.0)
    assert positive.size == kept
    block = gram[np.ix_(positive, positive)]
    scale = 1.0 / np.sqrt(np.diag(block))
    return float(f"{np.linalg.cond(block * scale[:, None] * scale, 1):.6g}")


def printed_condition_and_rank(args, capsys):
    assert main(args) == 0
    diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
    return diagnostics["condition_estimate"], diagnostics["rank"]


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def drawn_systems(seed, count):
    """(N, lambda, mean stay, elements) of ``count`` systems drawn from
    ``seed``: N in 1..2,000, load in [0.01, 0.99), mean stay in [1.05, 2)
    for every other system and in [2, 50) for the rest."""
    rng = np.random.default_rng(seed)
    drawn = []
    for i in range(count):
        n = int(rng.integers(1, 2001))
        load = float(rng.uniform(0.01, 0.99))
        mean_los = float(rng.uniform(1.05, 2.0) if i % 2 == 0 else rng.uniform(2.0, 50.0))
        drawn.append((n, load * n / mean_los, mean_los, int(rng.choice([32, 64, 160, 400]))))
    return drawn


class TestGramSweep:
    @pytest.mark.parametrize("n", [18, 66, 500, 5000])
    @pytest.mark.parametrize("load", [0.01, 0.1, 0.5, 0.9, 0.99])
    def test_printed_condition_is_finite_and_bounded(self, n, load, capsys):
        # The largest value over this grid is 2.72e10, at N = 18, load 0.99.
        args = ["projection", "--n", str(n), "--lambda", repr(load * n / 5.3),
                "--mean-los", "5.3", "--format", "json"]
        assert main(args) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert 1.0 <= out["diagnostics"]["condition_estimate"] <= 1e11

    @pytest.mark.parametrize("lam, mean_los", [("3.75", "1.2"), ("3.0", "1.5")])
    def test_low_load_short_stay_answers(self, lam, mean_los, capsys):
        # N = 18 at load 0.25, where hats near 0 carry almost no weight.
        args = ["--n", "18", "--lambda", lam, "--mean-los", mean_los, "--format", "json"]
        assert main(["projection", *args]) == 0
        capsys.readouterr()
        assert main(["compare", *args]) == 0
        tv = json.loads(capsys.readouterr().out, parse_constant=reject_constant)["tv"]
        assert tv["projection_vs_formula"] <= 1e-10

    def test_coarse_short_stay_answers(self):
        assert main(["projection", "--n", "46", "--lambda", "19.175", "--mean-los", "1.111",
                     "--elements", "32"]) == 0

    @pytest.mark.parametrize(
        "n, lam, mean_los, elements", drawn_systems(seed=2026, count=40),
        ids=lambda value: f"{value:.4g}" if isinstance(value, float) else str(value))
    def test_drawn_system_solves_within_tolerance(self, n, lam, mean_los, elements):
        """Every drawn system's Gram solve meets its residual tolerance.

        Known counterexamples at this seed: none.
        """
        *_, system = small_setup(ModelParams.from_mean_los(n, lam, mean_los), m=elements)
        alpha, residual, *_ = solve_gram(system)
        tol = max(projection._REL_TOL * np.linalg.norm(system.rhs),
                  100.0 * np.finfo(float).eps * system.rhs_scale)
        assert np.all(np.isfinite(alpha))
        assert residual <= tol
