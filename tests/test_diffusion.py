import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from midnightq import (
    DiffusionParams,
    LimitHarnessConfig,
    ModelParams,
    NormalDensity,
    TransitionKernel,
    UnstableRegimeError,
    derive_diffusion_params,
    dou_stationary_density,
    proxy_density,
    run_limit_harness,
    simulate_diffusion,
    simulate_replications,
    transition_density,
)
from midnightq.cli import csv_table as density_csv
from midnightq.diffusion import ks_distance

TOY = DiffusionParams(
    drift=-1.0, variance=4.0, tail_rate=0.5, gaussian_center=-2.0, ou_variance=16.0 / 3.0
)


def integrate_density(kernel: TransitionKernel, x: float) -> float:
    mean = float(kernel.step_base(x)) + kernel.diffusion.drift
    sd = math.sqrt(kernel.diffusion.variance)
    val, _ = quad(
        lambda y: transition_density(kernel, x, y), mean - 40 * sd, mean + 40 * sd, limit=200
    )
    return val


class TestTransitionDensity:
    def test_normalizes_on_both_branches(self, params_small):
        kernel = TransitionKernel(derive_diffusion_params(params_small), params_small.daily_service_prob)
        for x in (-30.0, -5.0, -0.1, 0.0, 0.1, 4.0, 25.0):
            assert abs(integrate_density(kernel, x) - 1.0) <= 1e-10

    def test_is_the_normal_density_of_the_step(self, params_small):
        # The step from x is Normal(step_base(x) + drift, variance), evaluated
        # by NormalDensity itself, bit for bit, on both branches.
        d = derive_diffusion_params(params_small)
        kernel = TransitionKernel(d, params_small.daily_service_prob)
        x = np.linspace(-30.0, 30.0, 401)
        y = x[::-1] / 2.0
        normal = NormalDensity(kernel.step_base(x) + d.drift, d.variance)
        assert np.array_equal(transition_density(kernel, x, y), normal(y))
        assert isinstance(transition_density(kernel, -3.0, -2.0), float)

    def test_origin_density_peaks_at_drift(self):
        kernel = TransitionKernel(TOY, 0.5)
        theta = TOY.drift
        peak = transition_density(kernel, 0.0, theta)
        assert peak > transition_density(kernel, 0.0, theta - 0.5)
        assert peak > transition_density(kernel, 0.0, theta + 0.5)
        assert peak == pytest.approx(1.0 / math.sqrt(2 * math.pi * TOY.variance), rel=1e-12)

    def test_idle_branch_mean(self):
        # From x = -10 the next-day state centers at (1 - mu) x + drift = -6.
        kernel = TransitionKernel(TOY, 0.5)
        m1, _ = quad(lambda y: y * transition_density(kernel, -10.0, y), -80, 60, limit=200)
        assert m1 == pytest.approx(-6.0, abs=1e-9)


class TestProxyDensity:
    def test_continuous_at_zero(self, params_small):
        d = derive_diffusion_params(params_small)
        proxy = proxy_density(d, params_small.daily_service_prob)
        assert abs(proxy(0.0) - proxy(-1e-300)) <= 1e-12

    def test_unit_mass_by_quadrature(self, params_small):
        d = derive_diffusion_params(params_small)
        proxy = proxy_density(d, params_small.daily_service_prob)
        lo = d.gaussian_center - 12 * math.sqrt(d.ou_variance)
        hi = 40.0 / d.tail_rate
        mass, _ = quad(proxy, lo, hi, limit=400, points=[0.0])
        assert abs(mass - 1.0) <= 1e-8

    def test_tail_rate_carried_exactly(self, params_medium):
        d = derive_diffusion_params(params_medium)
        proxy = proxy_density(d, params_medium.daily_service_prob)
        assert proxy.tail_rate == d.tail_rate

    def test_strictly_positive(self, params_medium):
        d = derive_diffusion_params(params_medium)
        proxy = proxy_density(d, params_medium.daily_service_prob)
        xs = np.linspace(d.gaussian_center - 8 * math.sqrt(d.ou_variance), 30 / d.tail_rate, 500)
        assert np.all(proxy(xs) > 0.0)

    def test_balanced_load_rejected(self):
        mu = 0.25
        p = ModelParams(40, 40 * mu, mu)
        with pytest.raises(UnstableRegimeError):
            proxy_density(derive_diffusion_params(p), mu)

    def test_idle_branch_mode_at_center_large_system(self, params_large):
        d = derive_diffusion_params(params_large)
        proxy = proxy_density(d, params_large.daily_service_prob)
        assert d.gaussian_center == pytest.approx(-17.965, abs=5e-4)
        c = d.gaussian_center
        assert proxy(c) > proxy(c - 1.0)
        assert proxy(c) > proxy(c + 1.0)

    def test_bin_masses_match_cdf(self, params_small):
        d = derive_diffusion_params(params_small)
        proxy = proxy_density(d, params_small.daily_service_prob)
        edges = np.arange(-25.5, 80.5)
        masses = proxy.bin_masses(edges)
        assert masses.sum() == pytest.approx(proxy.cdf(edges[-1]) - proxy.cdf(edges[0]), abs=1e-14)
        assert np.all(masses >= 0.0)


class TestDouStationaryDensity:
    def test_direct_substitution(self):
        dou = dou_stationary_density(-1.0, 4.0, 0.5)
        assert dou.mean == pytest.approx(-2.0)
        assert dou.variance == pytest.approx(16.0 / 3.0)

    def test_variance_approaches_step_variance_near_mu_one(self):
        dou = dou_stationary_density(-1.0, 4.0, 1.0 - 1e-9)
        assert dou.variance == pytest.approx(4.0, rel=1e-9)

    def test_mu_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="mu"):
            dou_stationary_density(-1.0, 4.0, 1.0)
        with pytest.raises(ValueError, match="mu"):
            dou_stationary_density(-1.0, 4.0, 0.0)

    def test_stationarity_under_pulled_kernel(self):
        # Quadrature oracle: one kernel step leaves the density unchanged.
        dou = dou_stationary_density(-1.0, 4.0, 0.5)
        kernel = TransitionKernel(TOY, 0.5, ou_everywhere=True)
        lo, hi = dou.mean - 12 * dou.sd, dou.mean + 12 * dou.sd
        for x in np.arange(-5.0, 6.0):
            val, _ = quad(lambda y: transition_density(kernel, y, x) * dou(y), lo, hi, limit=200)
            assert abs(val - dou(x)) <= 1e-8


def one_block_diffusion(d: DiffusionParams, mu: float, steps: int, seed) -> np.ndarray:
    """Reference loop: blocks of 2^20 increments, each state stored on its own."""
    rng = np.random.Generator(np.random.Philox(seed=seed))
    sd = math.sqrt(d.variance)
    keep = 1.0 - mu
    path = np.empty(steps + 1)
    path[0] = x = 0.0
    pos = 0
    while pos < steps:
        m = min(1 << 20, steps - pos)
        for i, g in enumerate(rng.normal(d.drift, sd, m).tolist()):
            x = (x if x >= 0.0 else keep * x) + g
            path[pos + 1 + i] = x
        pos += m
    return path


class TestSimulateDiffusion:
    def test_fixed_seed_reproduces_path(self):
        a = simulate_diffusion(TOY, 0.5, 2000, seed=1)
        b = simulate_diffusion(TOY, 0.5, 2000, seed=1)
        assert np.array_equal(a, b)

    def test_vanishing_pull_gives_gaussian_random_walk(self):
        d = DiffusionParams(
            drift=0.0, variance=2.25, tail_rate=1.0, gaussian_center=0.0, ou_variance=1.0
        )
        mu = 1e-12
        steps = 20_000
        path = simulate_diffusion(d, mu, steps, seed=5)
        rng = np.random.Generator(np.random.Philox(seed=5))
        walk = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 1.5, steps))])
        assert np.abs(path - walk).max() <= 1e-4

    def test_pushback_residuals_are_iid_gaussian_increments(self, params_small):
        d = derive_diffusion_params(params_small)
        mu = params_small.daily_service_prob
        steps = 100_000
        path = simulate_diffusion(d, mu, steps, seed=12)
        resid = path[1:] - path[:-1] - mu * np.clip(-path[:-1], 0.0, None)
        assert resid.mean() == pytest.approx(d.drift, abs=4 * math.sqrt(d.variance / steps))
        centered = resid - resid.mean()
        autocorr = (centered[1:] @ centered[:-1]) / (centered @ centered)
        assert abs(autocorr) <= 4.0 / math.sqrt(steps)

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError, match="steps"):
            simulate_diffusion(TOY, 0.5, 0, seed=0)

    def test_blocks_leave_the_path_bit_for_bit(self, params_small):
        # 70,000 steps cross the first 65,536-step block.
        d = derive_diffusion_params(params_small)
        mu = params_small.daily_service_prob
        path = simulate_diffusion(d, mu, 70_000, seed=3)
        assert np.array_equal(path, one_block_diffusion(d, mu, 70_000, seed=3))


class TestKSDistance:
    def test_identical_samples_give_zero(self):
        x = np.arange(10.0)
        assert ks_distance(x, x) == 0.0

    def test_disjoint_samples_give_one(self):
        assert ks_distance(np.zeros(5), np.ones(5)) == 1.0

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, 400)
        b = rng.normal(0.3, 1.2, 300)
        assert ks_distance(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)


class TestLimitHarness:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            LimitHarnessConfig((25, 25), 5, 10, 0.2)
        with pytest.raises(ValueError, match=">= 2"):
            LimitHarnessConfig((1, 25), 5, 10, 0.2)
        with pytest.raises(ValueError, match="replications"):
            LimitHarnessConfig((25,), 5, 0, 0.2)
        with pytest.raises(ValueError, match="beta_star"):
            LimitHarnessConfig((4, 25), 5, 10, 0.2, beta_star=2.5)

    def test_zero_horizon_degenerates_to_start(self):
        cfg = LimitHarnessConfig((25,), 0, 500, 1 / 5.3, seed=2)
        report = run_limit_harness(cfg)
        assert report.ks_distances() == [0.0]

    def test_low_replication_warning(self):
        cfg = LimitHarnessConfig((25,), 2, 50, 1 / 5.3, seed=2)
        report = run_limit_harness(cfg)
        assert any("KS noise" in w for w in report.warnings)

    def test_one_step_mean_matches_coupling(self):
        # After one day from a full system the scaled mean is -mu * beta_star.
        mu = 1 / 5.3
        beta = 1.0
        n, reps = 100, 200_000
        cfg = LimitHarnessConfig((n,), 1, reps, mu, beta_star=beta, seed=4)
        p = ModelParams(n, cfg.arrival_rate(n), mu)
        finals = simulate_replications(p, 1, reps, seed=8)
        scaled = (finals - n) / math.sqrt(n)
        se = scaled.std() / math.sqrt(reps)
        assert abs(scaled.mean() - (-mu * beta)) <= 3 * se

    def test_exact_qed_coupling(self):
        cfg = LimitHarnessConfig((25, 100, 400), 3, 10, 1 / 5.3, beta_star=1.0, seed=0)
        for n in cfg.system_sizes:
            lam = cfg.arrival_rate(n)
            rho = lam / (n * cfg.service_prob)
            assert math.sqrt(n) * (1.0 - rho) == pytest.approx(cfg.beta_star, rel=1e-12)

    def test_report_serializes_to_json(self):
        cfg = LimitHarnessConfig((25,), 2, 2000, 1 / 5.3, seed=2)
        payload = json.loads(json.dumps(run_limit_harness(cfg).payload()))
        assert set(payload) == {"entries", "warnings"}
        entry = payload["entries"][0]
        assert set(entry) == {"n", "ks_distance", "replications", "horizon"}

    def test_reproducible_for_fixed_seed(self):
        cfg = LimitHarnessConfig((25, 64), 4, 3000, 1 / 5.3, seed=6)
        assert run_limit_harness(cfg).ks_distances() == run_limit_harness(cfg).ks_distances()


class TestDensityTable:
    def test_csv_round_trip(self, params_small):
        d = derive_diffusion_params(params_small)
        proxy = proxy_density(d, params_small.daily_service_prob)
        assert proxy.tail_rate == d.tail_rate
        grid = np.linspace(-10, 10, 11)
        lines = density_csv(grid, proxy(grid)).splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 12
