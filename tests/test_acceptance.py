"""Acceptance gate: every release-blocking criterion at its stated tolerance.

Each test prints one PASS line with the measured figure once its assertions
hold, so a verbose run doubles as a checklist.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from midnightq import (
    DiffusionParams,
    LimitHarnessConfig,
    ModelParams,
    TransitionKernel,
    build_kernel,
    derive_diffusion_params,
    dou_stationary_density,
    proxy_density,
    run_limit_harness,
    simulate_diffusion,
    stationary_pmf,
    transition_density,
)
from midnightq.cli import main
from midnightq.compare import compare_methods
from midnightq.projection import (
    RatioReconstruction,
    assemble_gram,
    build_basis,
    project_stationary_density,
    solve_gram,
)

MEAN_LOS = 5.3
SYSTEMS = {18: 3.03, 66: 11.37, 500: 90.95}


def params_for(n: int) -> ModelParams:
    return ModelParams.from_mean_los(n, SYSTEMS[n], MEAN_LOS)


def tv(a: np.ndarray, b: np.ndarray) -> float:
    width = max(a.size, b.size)
    pa = np.zeros(width)
    pa[: a.size] = a
    pb = np.zeros(width)
    pb[: b.size] = b
    return 0.5 * float(np.abs(pa - pb).sum())


def test_criterion_1_transition_kernel_normalization():
    p = params_for(18)
    kernel = TransitionKernel(derive_diffusion_params(p), p.daily_service_prob)
    sd = math.sqrt(kernel.diffusion.variance)
    worst = 0.0
    for x in np.linspace(-50.0, 50.0, 40):
        mean = float(kernel.step_base(x)) + kernel.diffusion.drift
        mass, _ = quad(
            lambda y: transition_density(kernel, x, y),
            mean - 40 * sd,
            mean + 40 * sd,
            limit=200,
        )
        worst = max(worst, abs(mass - 1.0))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 1 PASS kernel normalization, worst |mass-1| = {worst:.2e}")


def test_criterion_2_dou_invariance():
    configs = [(-1.0, 4.0, 0.5)]
    for n in (18, 500):
        p = params_for(n)
        d = derive_diffusion_params(p)
        configs.append((d.drift, d.variance, p.daily_service_prob))
    worst = 0.0
    for theta, sigma2, mu in configs:
        dou = dou_stationary_density(theta, sigma2, mu)
        kernel = TransitionKernel(
            DiffusionParams(
                drift=theta,
                variance=sigma2,
                tail_rate=-2 * theta / sigma2,
                gaussian_center=dou.mean,
                ou_variance=dou.variance,
            ),
            mu,
            ou_everywhere=True,
        )
        lo, hi = dou.mean - 14 * dou.sd, dou.mean + 14 * dou.sd
        for x in np.linspace(dou.mean - 4 * dou.sd, dou.mean + 4 * dou.sd, 13):
            val, _ = quad(
                lambda y: transition_density(kernel, y, x) * dou(y), lo, hi, limit=300
            )
            worst = max(worst, abs(val - dou(x)))
    assert worst <= 1e-8
    print(f"\nACCEPTANCE 2 PASS stationarity of the pulled recursion, residual = {worst:.2e}")


@pytest.mark.parametrize("n", [18, 66, 500])
def test_criterion_3_exact_chain(n):
    p = params_for(n)
    kernel = build_kernel(p)
    pi = stationary_pmf(kernel, tol=1e-13)
    assert pi.residual <= 1e-12
    flow = abs(p.daily_arrival_rate - p.daily_service_prob * pi.busy_server_mean())
    assert flow <= 1e-8
    doubled = stationary_pmf(
        build_kernel(p, truncation=2 * kernel.truncation_level), tol=1e-13
    )
    shift = tv(pi.mass, doubled.mass)
    assert shift <= 1e-10
    print(
        f"\nACCEPTANCE 3 PASS N={n}: residual={pi.residual:.2e} "
        f"flow={flow:.2e} truncation-doubling TV={shift:.2e}"
    )


def test_criterion_4_proxy_formula():
    for n in SYSTEMS:
        p = params_for(n)
        d = derive_diffusion_params(p)
        proxy = proxy_density(d, p.daily_service_prob)
        gap = abs(proxy(0.0) - proxy(-1e-300))
        assert gap <= 1e-12
        lo = d.gaussian_center - 12 * math.sqrt(d.ou_variance)
        hi = 40.0 / d.tail_rate
        mass, _ = quad(proxy, lo, hi, limit=400, points=[0.0])
        assert abs(mass - 1.0) <= 1e-8
        assert proxy.tail_rate == -2.0 * d.drift / d.variance
    print("\nACCEPTANCE 4 PASS proxy continuity, unit mass, exact tail rate (3 systems)")


@pytest.mark.parametrize("n", [18, 66])
def test_criterion_5_projection_vs_monte_carlo(n):
    p = params_for(n)
    d = derive_diffusion_params(p)
    mu = p.daily_service_prob
    samples = simulate_diffusion(d, mu, 10_000_000, seed=11)[10_000:]
    edges = np.arange(math.floor(samples.min()) - 0.5, math.ceil(samples.max()) + 1.5)
    hist, _ = np.histogram(samples, bins=edges)
    mc = hist / hist.sum()
    _, _, recon = project_stationary_density(d, mu, num_elements=160)
    masses = recon.bin_masses(edges)
    dist = 0.5 * float(np.abs(masses / masses.sum() - mc).sum())
    assert dist <= 0.02
    print(f"\nACCEPTANCE 5 PASS N={n}: TV(projection, simulated diffusion) = {dist:.4f}")


def test_criterion_6_dou_self_test():
    theta, sigma2, mu = -1.0, 4.0, 0.5
    dou = dou_stationary_density(theta, sigma2, mu)
    kernel = TransitionKernel(
        DiffusionParams(
            drift=theta,
            variance=sigma2,
            tail_rate=-2 * theta / sigma2,
            gaussian_center=dou.mean,
            ou_variance=dou.variance,
        ),
        mu,
        ou_everywhere=True,
    )
    m = 64
    lo, hi = dou.mean - 6 * dou.sd, dou.mean + 6 * dou.sd
    h = (hi - lo) / m
    lo = -round(-lo / h) * h
    basis = build_basis(lo, lo + m * h, m)
    system = assemble_gram(basis, kernel, dou)
    solve_gram(system)
    recon = RatioReconstruction(system)
    grid = np.linspace(dou.mean - 3 * dou.sd, dou.mean + 3 * dou.sd, 241)
    worst = float(np.abs(recon.ratio(grid) - 1.0).max())
    assert worst <= 0.05
    print(f"\nACCEPTANCE 6 PASS pulled-kernel self-test, max |q-1| = {worst:.2e}")


@pytest.mark.parametrize("n", [18, 66, 500])
def test_criterion_7_three_way_agreement(n):
    report = compare_methods(params_for(n))
    distances = report.tv()
    assert distances["formula_vs_exact"] <= 0.05
    assert distances["projection_vs_exact"] <= 0.05
    print(
        f"\nACCEPTANCE 7 PASS N={n}: TV(formula, exact)={distances['formula_vs_exact']:.4f} "
        f"TV(projection, exact)={distances['projection_vs_exact']:.4f}"
    )


def test_criterion_8_limit_trend():
    cfg = LimitHarnessConfig(
        system_sizes=(25, 100, 400),
        horizon=10,
        replications=100_000,
        service_prob=1 / MEAN_LOS,
        beta_star=1.0,
        seed=0,
    )
    ks = run_limit_harness(cfg).ks_distances()
    assert all(a > b for a, b in zip(ks, ks[1:]))
    print(f"\nACCEPTANCE 8 PASS KS distances strictly decreasing: {[f'{k:.4f}' for k in ks]}")


def test_criterion_9_seeded_commands_are_byte_identical(tmp_path):
    runs = {
        "exact": ["exact", "--n", "18", "--lambda", "3.03", "--mean-los", "5.3",
                  "--truncation", "200"],
        "formula": ["formula", "--n", "18", "--lambda", "3.03", "--mean-los", "5.3"],
        "projection": ["projection", "--n", "18", "--lambda", "3.03", "--mean-los", "5.3",
                       "--elements", "64", "--format", "json"],
        "simulate": ["simulate", "--n", "18", "--lambda", "3.03", "--mean-los", "5.3",
                     "--steps", "100000", "--seed", "3"],
        "limit-check": ["limit-check", "--n", "25,100", "--mean-los", "5.3", "--steps", "5",
                        "--replications", "3000", "--seed", "3"],
        "compare": ["compare", "--n", "18", "--lambda", "3.03", "--mean-los", "5.3",
                    "--elements", "64", "--truncation", "200"],
    }
    for name, args in runs.items():
        first = tmp_path / f"{name}_1.out"
        second = tmp_path / f"{name}_2.out"
        assert main([*args, "--out", str(first)]) == 0
        assert main([*args, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
    print("\nACCEPTANCE 9 PASS all six commands byte-identical across reruns")
