"""Discrete-time diffusion approximation of the centered midnight count.

The approximating process takes an independent Gaussian step each day and,
while the state is negative (idle servers), receives an extra upward push
proportional to the idle depth:

    X[k+1] = X[k] + G[k] + mu * max(-X[k], 0),   G[k] ~ Normal(drift, variance)

This module provides the one-day transition density of that process, the
closed-form piecewise proxy for its stationary density (exponential tail on
the congested side, Gaussian on the idle side, pieced continuously at
zero), the exact Gaussian stationary law of the always-pulled recursion,
path simulation, and an empirical check that the scaled pre-limit queue
converges to the Gaussian-driven limit recursion as the system grows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import ndtr

from .model import DiffusionParams, ModelParams, UnstableRegimeError
from . import chain as chain_mod

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """One-day transition density of the approximating process.

    With ``ou_everywhere`` the mean-reverting pull applies on both sides of
    zero, which turns the process into the pure discrete OU recursion whose
    stationary law is known in closed form (useful as a self-test).
    """

    diffusion: DiffusionParams
    service_prob: float
    ou_everywhere: bool = False

    def __post_init__(self) -> None:
        mu = self.service_prob
        if not 0.0 < mu < 1.0:
            raise ValueError(f"service_prob must lie in (0, 1), got {mu!r}")

    def step_base(self, x):
        """Pre-increment location: x on the congested side, (1-mu)x on the idle side."""
        pulled = (1.0 - self.service_prob) * np.asarray(x, dtype=float)
        if self.ou_everywhere:
            return pulled
        return np.where(np.asarray(x, dtype=float) >= 0.0, x, pulled)

    def step_law(self, x) -> tuple[np.ndarray, float]:
        """``(means, sd)``: the step from each state of ``x`` is Normal(means, sd^2)."""
        d = self.diffusion
        return np.asarray(self.step_base(x), dtype=float) + d.drift, math.sqrt(d.variance)


def transition_density(kernel: TransitionKernel, x, y):
    """Density of tomorrow's state ``y`` given today's state ``x``."""
    means, sd = kernel.step_law(x)
    return NormalDensity(means, sd * sd)(y)


@dataclass(frozen=True, eq=False)
class NormalDensity:
    """Gaussian density (the always-pulled recursion's stationary law)."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not self.variance > 0.0:
            raise ValueError(f"variance must be positive, got {self.variance!r}")

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def __call__(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        out = np.exp(-0.5 * z * z) / (self.sd * _SQRT2PI)
        return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class PiecewiseDensity:
    """Closed-form proxy for the stationary density of the daily diffusion.

    Exponential with rate ``tail_rate`` on [0, inf), Gaussian with mean
    ``gaussian_center`` and variance ``ou_variance`` on (-inf, 0), with the
    two amplitudes solving continuity at zero and unit total mass.
    """

    alpha_pos: float
    alpha_neg: float
    tail_rate: float
    gaussian_center: float
    ou_variance: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        sd = math.sqrt(self.ou_variance)
        z = (x - self.gaussian_center) / sd
        neg = self.alpha_neg * np.exp(-0.5 * z * z)
        pos = self.alpha_pos * np.exp(-self.tail_rate * np.clip(x, 0.0, None))
        out = np.where(x < 0.0, neg, pos)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        sd = math.sqrt(self.ou_variance)
        # alpha_neg times the full-line Gaussian mass, times its cdf
        below = (self.alpha_neg * _SQRT2PI * sd) * ndtr(
            (np.minimum(x, 0.0) - self.gaussian_center) / sd
        )
        above = (self.alpha_pos / self.tail_rate) * (
            1.0 - np.exp(-self.tail_rate * np.clip(x, 0.0, None))
        )
        out = below + above
        return out if out.ndim else float(out)

    def bin_masses(self, edges: np.ndarray) -> np.ndarray:
        """Exact masses of the half-open bins defined by ``edges``."""
        c = self.cdf(np.asarray(edges, dtype=float))
        return np.diff(c)


def proxy_density(d: DiffusionParams, mu: float) -> PiecewiseDensity:
    """Solve the two normalizing amplitudes of the piecewise proxy.

    Continuity at zero ties the amplitudes together; unit total mass fixes
    the remaining scale.  Requires negative drift, otherwise the exponential
    branch carries infinite mass.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu!r}")
    if d.tail_rate <= 0.0 or d.drift >= 0.0:
        raise UnstableRegimeError(
            "proxy density not normalizable (γ ≤ 0): drift must be negative"
        )
    center = d.gaussian_center
    v = d.ou_variance
    sd = math.sqrt(v)
    # alpha_pos = ratio * alpha_neg, from matching the two branches at zero
    ratio = math.exp(-center * center / (2.0 * v))
    neg_mass_unit = _SQRT2PI * sd * float(ndtr(-center / sd))
    alpha_neg = 1.0 / (ratio / d.tail_rate + neg_mass_unit)
    alpha_pos = ratio * alpha_neg
    return PiecewiseDensity(
        alpha_pos=alpha_pos,
        alpha_neg=alpha_neg,
        tail_rate=d.tail_rate,
        gaussian_center=center,
        ou_variance=v,
    )


def dou_stationary_density(theta: float, sigma2: float, mu: float) -> NormalDensity:
    """Stationary law of the always-pulled Gaussian recursion.

    X[k+1] = (1 - mu) X[k] + G[k] with G ~ Normal(theta, sigma2) has the
    Gaussian stationary density with mean theta/mu and variance
    sigma2 / (2 mu - mu^2).
    """
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu!r}")
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2!r}")
    return NormalDensity(mean=theta / mu, variance=sigma2 / (2.0 * mu - mu * mu))


# Increments are drawn in blocks of this many steps.  Generator.normal gives
# the same sequence under any split into blocks, so the size only bounds
# the memory of the list of Python floats a block fills.
_BLOCK_STEPS = 1 << 16


def simulate_diffusion(
    d: DiffusionParams,
    mu: float,
    steps: int,
    seed,
) -> np.ndarray:
    """Simulate the daily diffusion path from 0, reproducibly.

    Gaussian increments are pre-drawn in blocks; the idle-side push is
    applied sequentially since it depends on the running state, and each
    block's states are stored with one slice assignment.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu!r}")
    rng = chain_mod._path_rng(seed)
    sd = math.sqrt(d.variance)
    keep = 1.0 - mu

    path = np.empty(steps + 1)
    path[0] = x = 0.0
    pos = 0
    while pos < steps:
        m = min(_BLOCK_STEPS, steps - pos)
        block = []
        append = block.append
        for g in rng.normal(d.drift, sd, m).tolist():
            x = (x if x >= 0.0 else keep * x) + g
            append(x)
        path[pos + 1 : pos + 1 + m] = block
        pos += m
    return path


@dataclass(frozen=True)
class LimitHarnessConfig:
    """Settings for the empirical convergence check of the scaled queue.

    Each system size N runs with arrival rate N*mu*(1 - beta_star/sqrt(N)),
    so sqrt(N)(1 - rho_N) equals beta_star exactly and the limiting arrival
    rate per server is ``service_prob``.
    """

    system_sizes: tuple[int, ...]
    horizon: int
    replications: int
    service_prob: float
    beta_star: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = tuple(int(n) for n in self.system_sizes)
        object.__setattr__(self, "system_sizes", sizes)
        if len(set(sizes)) != len(sizes):
            raise ValueError(f"system sizes must be distinct, got {sizes!r}")
        if any(n < 2 for n in sizes):
            raise ValueError(f"system sizes must be >= 2, got {sizes!r}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon!r}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications!r}")
        if not 0.0 < self.service_prob < 1.0:
            raise ValueError(f"service_prob must lie in (0, 1), got {self.service_prob!r}")
        if self.beta_star <= 0.0:
            raise ValueError(f"beta_star must be positive, got {self.beta_star!r}")
        bad = [n for n in sizes if self.beta_star >= math.sqrt(n)]
        if bad:
            raise ValueError(
                f"beta_star={self.beta_star!r} leaves no arrivals for sizes {bad!r}"
            )

    def arrival_rate(self, n: int) -> float:
        return n * self.service_prob * (1.0 - self.beta_star / math.sqrt(n))


@dataclass(frozen=True)
class LimitEntry:
    n: int
    ks_distance: float
    replications: int
    horizon: int


@dataclass(frozen=True)
class LimitReport:
    entries: tuple[LimitEntry, ...]
    warnings: tuple[str, ...] = field(default=())

    def ks_distances(self) -> list[float]:
        return [e.ks_distance for e in self.entries]

    def payload(self) -> dict:
        """The report as JSON-ready data."""
        return {"entries": [asdict(e) for e in self.entries], "warnings": list(self.warnings)}


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _simulate_limit_recursion(
    mu: float,
    drift: float,
    variance: float,
    horizon: int,
    n_paths: int,
    seed,
) -> np.ndarray:
    rng = chain_mod._path_rng(seed)
    sd = math.sqrt(variance)
    x = np.zeros(n_paths)
    keep = 1.0 - mu
    for _ in range(horizon):
        g = rng.normal(drift, sd, n_paths)
        x = np.where(x >= 0.0, x, keep * x) + g
    return x


def run_limit_harness(cfg: LimitHarnessConfig) -> LimitReport:
    """Compare the scaled pre-limit queue with the Gaussian limit recursion.

    For each system size the queue starts full, runs ``horizon`` days, and
    the final count is centered and scaled by sqrt(N).  The limit side runs
    the same recursion driven by Gaussian increments with mean
    -mu*beta_star and variance mu + mu(1-mu).  The report carries
    one KS distance per system size.  Refuses with ValueError, before
    simulating, R replications whose 15 R float64 values held at once (the
    finals, scaled, the limit paths, and ``ks_distance``'s sorted copies and
    five arrays over its 2R grid) would take over ``chain._memory_budget``.
    """
    chain_mod._check_budget(120 * cfg.replications, f"{cfg.replications} replications need",
                            "lower --replications")
    mu = cfg.service_prob
    warnings: list[str] = []
    if cfg.replications < 1000:
        warnings.append(
            f"replications={cfg.replications} < 1000: KS noise dominates the comparison"
        )
    limit_drift = -mu * cfg.beta_star
    limit_variance = mu + mu * (1.0 - mu)

    root = np.random.SeedSequence(cfg.seed)
    entries = []
    for n, child in zip(cfg.system_sizes, root.spawn(len(cfg.system_sizes))):
        pre_seed, lim_seed = child.spawn(2)
        params = ModelParams(n, cfg.arrival_rate(n), mu)
        finals = chain_mod.simulate_replications(params, cfg.horizon, cfg.replications, pre_seed)
        scaled = (finals - n) / math.sqrt(n)
        limit = _simulate_limit_recursion(
            mu, limit_drift, limit_variance, cfg.horizon, cfg.replications, lim_seed
        )
        distance = ks_distance(scaled, limit)
        entries.append(LimitEntry(n, distance, cfg.replications, cfg.horizon))
    return LimitReport(entries=tuple(entries), warnings=tuple(warnings))
