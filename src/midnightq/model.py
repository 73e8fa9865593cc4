"""Queue primitives, the derived diffusion scalars, and the policies every route shares.

The system under study is a single pool of ``n_servers`` beds with Poisson
arrivals at a daily rate and geometric (whole-day) lengths of stay: each
customer in service at midnight departs the next day with probability
``daily_service_prob``.  Every route and simulator consumes the two
parameter records, the memory budget and the seeded stream defined here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

SQRT2PI = math.sqrt(2.0 * math.pi)
# Memory one row of a law's table takes: 16 bytes in its two arrays, and up
# to 280 more while it is written as JSON (138 as CSV), measured for 10^6
# `simulate` states (a `formula` grid point: 296 and 168 bytes).
ROW_BYTES = 512


class SolverError(RuntimeError):
    """A route gives no answer: the queue has no stationary law (load >= 1),
    or a chain or Gram solve fails or misses its tolerance.  ``residual`` is
    the solve's residual where one was reached, else None."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def memory_budget() -> int:
    """Bytes an array may take before it is refused: half of physical memory."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


def check_budget(needed: int, what: str, advice: str) -> None:
    """Refuse with ValueError, naming ``what`` and ``advice``, ``needed``
    bytes over ``memory_budget``; called before they are allocated."""
    available = memory_budget()
    if needed > available:
        raise ValueError(
            f"{what} {needed / 2**30:.1f} GiB, over half of physical memory "
            f"({available / 2**30:.1f} GiB); {advice}"
        )


def path_rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=seed))


@dataclass(frozen=True)
class ModelParams:
    """Primitives of the daily-review queue.

    Attributes
    ----------
    n_servers : int
        Number of servers (beds), >= 1.
    daily_arrival_rate : float
        Mean number of arrivals per day (Poisson rate), > 0.
    daily_service_prob : float
        Per-day departure probability for a customer in service, in (0, 1).
        The mean length of stay is ``1 / daily_service_prob`` days.
    """

    n_servers: int
    daily_arrival_rate: float
    daily_service_prob: float

    def __post_init__(self) -> None:
        n = self.n_servers
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"n_servers must be a positive integer, got {n!r}")
        lam = float(self.daily_arrival_rate)
        if not math.isfinite(lam) or lam <= 0.0:
            raise ValueError(f"daily_arrival_rate must be positive and finite, got {lam!r}")
        mu = float(self.daily_service_prob)
        if not math.isfinite(mu) or not 0.0 < mu < 1.0:
            raise ValueError(f"daily_service_prob must lie in (0, 1), got {mu!r}")
        object.__setattr__(self, "daily_arrival_rate", lam)
        object.__setattr__(self, "daily_service_prob", mu)

    @property
    def mean_los(self) -> float:
        """Mean length of stay in days."""
        return 1.0 / self.daily_service_prob

    @property
    def load(self) -> float:
        """Traffic intensity: offered work per server per day."""
        return self.daily_arrival_rate / (self.n_servers * self.daily_service_prob)

    @classmethod
    def from_mean_los(cls, n_servers: int, daily_arrival_rate: float, mean_los: float) -> ModelParams:
        """Build params from the mean length of stay instead of the daily rate."""
        return cls(n_servers, daily_arrival_rate, service_prob_of(mean_los))


def service_prob_of(mean_los: float) -> float:
    """The daily service probability 1 / ``mean_los``; refuses a mean stay
    of 1 day or less with ValueError."""
    if not math.isfinite(mean_los) or mean_los <= 1.0:
        raise ValueError(f"mean_los must exceed 1 day, got {mean_los!r}")
    return 1.0 / mean_los


@dataclass(frozen=True)
class DiffusionParams:
    """Scalars of the Gaussian-increment approximation of the centered count.

    ``drift`` and ``variance`` are the per-day mean and variance of the
    driving increments.  ``tail_rate`` is the exponential decay rate of the
    stationary density on the congested side, ``gaussian_center`` and
    ``ou_variance`` the mean and variance of its Gaussian branch on the
    idle side.
    """

    drift: float
    variance: float
    tail_rate: float
    gaussian_center: float
    ou_variance: float

    def __post_init__(self) -> None:
        if not self.variance > 0.0:
            raise ValueError(f"variance must be positive, got {self.variance!r}")
        if not self.ou_variance > 0.0:
            raise ValueError(f"ou_variance must be positive, got {self.ou_variance!r}")


def derive_diffusion_params(p: ModelParams) -> DiffusionParams:
    """Derive the per-day drift/variance and the stationary-shape scalars.

    drift     = arrival rate - n_servers * service prob
    variance  = load * n_servers * service prob * (2 - service prob)
    tail_rate = -2 * drift / variance
    """
    lam = p.daily_arrival_rate
    mu = p.daily_service_prob
    n = p.n_servers
    rho = p.load

    drift = lam - n * mu
    variance = rho * n * mu * (2.0 - mu)
    tail_rate = -2.0 * drift / variance
    gaussian_center = drift / mu
    ou_variance = variance / (2.0 * mu - mu * mu)
    return DiffusionParams(
        drift=drift,
        variance=variance,
        tail_rate=tail_rate,
        gaussian_center=gaussian_center,
        ou_variance=ou_variance,
    )
