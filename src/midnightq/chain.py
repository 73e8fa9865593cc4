"""Exact midnight-count Markov chain on a truncated lattice.

One day of the queue moves the count ``x`` to ``x - D + A`` where
``D ~ Binomial(min(x, N), mu)`` are the departures resolved at midnight and
``A ~ Poisson(lam)`` are the arrivals accumulated during the day.  The chain
is truncated at a configurable top state; any probability mass that would
land above it is folded into the top state so every row stays stochastic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.special import gammaln

from .model import ModelParams, UnstableRegimeError, derive_diffusion_params


class ConvergenceError(RuntimeError):
    """Stationary solve failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def poisson_pmf(rate: float, top: int) -> np.ndarray:
    """Poisson pmf on {0, ..., top}, evaluated through log space."""
    k = np.arange(top + 1, dtype=float)
    return np.exp(-rate + k * math.log(rate) - gammaln(k + 1.0))


def binomial_pmf(trials: int, prob: float) -> np.ndarray:
    """Binomial pmf on {0, ..., trials}, evaluated through log space."""
    if trials == 0:
        return np.ones(1)
    d = np.arange(trials + 1, dtype=float)
    logpmf = (
        gammaln(trials + 1.0)
        - gammaln(d + 1.0)
        - gammaln(trials - d + 1.0)
        + d * math.log(prob)
        + (trials - d) * math.log1p(-prob)
    )
    return np.exp(logpmf)


@dataclass(frozen=True, eq=False)
class ChainKernel:
    """One-day transition matrix of the truncated midnight-count chain."""

    truncation_level: int
    rows: np.ndarray
    params: ModelParams

    @property
    def states(self) -> np.ndarray:
        return np.arange(self.truncation_level + 1)


@dataclass(frozen=True, eq=False)
class StationaryPMF:
    """Stationary distribution of the truncated chain."""

    support: np.ndarray
    mass: np.ndarray
    params: ModelParams
    residual: float

    def mean(self) -> float:
        return float(self.support @ self.mass)

    def sd(self) -> float:
        m = self.mean()
        return float(math.sqrt(max(0.0, (self.support - m) ** 2 @ self.mass)))

    def prob_above(self, level: int) -> float:
        """Total mass on states strictly above ``level``."""
        return float(self.mass[self.support > level].sum())

    def busy_server_mean(self) -> float:
        """Expected number of busy servers under the stationary law."""
        z = np.minimum(self.support, self.params.n_servers)
        return float(z @ self.mass)

    def to_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(pmf_csv(self.support, self.mass))


@dataclass(frozen=True, eq=False)
class SimulatedPath:
    """A realized midnight-count trajectory under a fixed seed."""

    seed: int
    counts: np.ndarray
    params: ModelParams


def pmf_csv(states: np.ndarray, mass: np.ndarray) -> str:
    """``state,probability`` rows with 12 significant digits."""
    lines = ["state,probability"]
    lines += [f"{int(s)},{p:.12g}" for s, p in zip(states, mass)]
    return "\n".join(lines) + "\n"


def default_truncation(p: ModelParams) -> int:
    """Top state high enough that the folded tail is numerically invisible.

    Covers ten one-day standard deviations above the server count and, in
    the stable regime, enough exponential tail e-folds that doubling the
    truncation moves the stationary law by well under 1e-10 in total
    variation.
    """
    d = derive_diffusion_params(p)
    spread = 10.0 * math.sqrt(d.variance)
    if d.tail_rate > 0.0:
        spread = max(spread, 45.0 / d.tail_rate)
    return p.n_servers + math.ceil(spread)


def build_kernel(p: ModelParams, truncation: int | None = None) -> ChainKernel:
    """Build the one-day transition matrix on {0, ..., truncation}.

    Row ``x`` is the departure-then-arrival convolution; mass that would
    exceed the top state is added to the top entry, so each row sums to 1.
    """
    if truncation is None:
        truncation = default_truncation(p)
    n = p.n_servers
    if truncation < n:
        raise ValueError(
            f"truncation below server count ({truncation} < {n})"
        )
    k_max = int(truncation)
    lam = p.daily_arrival_rate
    mu = p.daily_service_prob

    arrivals = poisson_pmf(lam, k_max)
    rows = np.zeros((k_max + 1, k_max + 1))

    # Saturated states share one displacement law: survivors of N coins plus
    # the day's arrivals.  Build it once, then shift.
    survivors_full = binomial_pmf(n, mu)[::-1]  # index i = N - departures
    displacement = np.convolve(survivors_full, arrivals)

    for x in range(k_max + 1):
        z = min(x, n)
        if x < n:
            survivors = binomial_pmf(z, mu)[::-1] if z > 0 else np.ones(1)
            full = np.convolve(survivors, arrivals)
            # index j of `full` is the next state y = (x - z) + j
            lo = x - z
            rows[x, lo:] = full[: k_max + 1 - lo]
        else:
            lo = x - n
            rows[x, lo:] = displacement[: k_max + 1 - lo]
        # Fold the beyond-truncation mass into the top state; roundoff can
        # leave the row summing a few ulps above one, so clamp at zero.
        rows[x, k_max] = max(rows[x, k_max] + 1.0 - rows[x].sum(), 0.0)

    return ChainKernel(truncation_level=k_max, rows=rows, params=p)


def stationary_pmf(kernel: ChainKernel, tol: float = 1e-12) -> StationaryPMF:
    """Solve pi = pi P on the truncated lattice.

    One LU solve of P^T - I with its first row replaced by the normalization
    row, then one step of iterative refinement with the same factor.  Raises
    UnstableRegimeError at load >= 1, where the untruncated chain has no
    stationary law, and ConvergenceError (carrying the residual) if the
    solve leaves negative mass or misses ``tol``.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    p = kernel.params
    if p.load >= 1.0:
        raise UnstableRegimeError(
            f"chain not positive recurrent at load {p.load:.6g} >= 1: "
            "no stationary law"
        )
    rows = kernel.rows
    k = rows.shape[0]
    system = np.array(rows.T, order="F")
    system[np.diag_indices(k)] -= 1.0
    system[0, :] = 1.0  # replace one balance equation with the normalization
    factor = lu_factor(system, overwrite_a=True, check_finite=False)
    rhs = np.zeros(k)
    rhs[0] = 1.0
    pi = lu_solve(factor, rhs, check_finite=False)
    # Refinement residual from the kernel itself, not from the overwritten system.
    correction = pi - pi @ rows
    correction[0] = 1.0 - pi.sum()
    pi += lu_solve(factor, correction, check_finite=False)
    if pi.min() < -1e-10:
        raise ConvergenceError(
            f"stationary solve produced negative mass {pi.min():.3e}",
            residual=float(np.abs(pi @ rows - pi).sum()),
        )
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = float(np.abs(pi @ rows - pi).sum())
    if not residual <= tol:
        raise ConvergenceError(
            f"stationary solve did not reach tol={tol:g}; residual={residual:.3e}",
            residual=residual,
        )
    return StationaryPMF(support=kernel.states, mass=pi, params=p, residual=residual)


# Coin matrices are drawn in fixed-size blocks so the stream consumed by a
# given (seed, params) pair does not depend on the horizon split.
_COIN_BUDGET = 1 << 23


def _path_rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=seed))


def simulate_path(
    p: ModelParams,
    horizon: int,
    seed,
    x0: int | None = None,
) -> SimulatedPath:
    """Simulate ``horizon`` days of the midnight count, reproducibly.

    Departures use one Bernoulli coin per occupied server (the first
    ``min(x, N)`` coins of that day's row), which realizes the exact
    Binomial(min(x, N), mu) law while letting whole blocks of days be
    pre-drawn at once.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon!r}")
    n = p.n_servers
    lam = p.daily_arrival_rate
    mu = p.daily_service_prob
    rng = _path_rng(seed)

    x = n if x0 is None else int(x0)
    if x < 0:
        raise ValueError(f"x0 must be nonnegative, got {x0!r}")
    counts = np.empty(horizon + 1, dtype=np.int64)
    counts[0] = x

    chunk = max(1, _COIN_BUDGET // (n + 1))
    pos = 0
    while pos < horizon:
        days = min(chunk, horizon - pos)
        coins = rng.random((days, n)) < mu
        departures = np.cumsum(coins, axis=1, dtype=np.int32)  # counts fit easily
        arrivals = rng.poisson(lam, days)
        for i in range(days):
            z = x if x < n else n
            d = departures[i, z - 1] if z > 0 else 0
            x = int(x - d + arrivals[i])
            counts[pos + 1 + i] = x
        pos += days

    return SimulatedPath(seed=seed, counts=counts, params=p)


def simulate_replications(
    p: ModelParams,
    horizon: int,
    n_paths: int,
    seed,
    x0: int | None = None,
) -> np.ndarray:
    """Final-day counts of ``n_paths`` independent replications.

    Vectorized across replications; each day draws departures then arrivals.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon!r}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths!r}")
    n = p.n_servers
    rng = _path_rng(seed)
    x = np.full(n_paths, n if x0 is None else int(x0), dtype=np.int64)
    for _ in range(horizon):
        z = np.minimum(x, n)
        d = rng.binomial(z, p.daily_service_prob)
        a = rng.poisson(p.daily_arrival_rate, n_paths)
        x = x - d + a
    return x


def empirical_pmf(counts: np.ndarray, burn_in: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Occupation frequencies of a path after discarding ``burn_in`` days."""
    tail = counts[burn_in:]
    if tail.size == 0:
        raise ValueError("burn_in leaves no samples")
    freq = np.bincount(tail)
    return np.arange(freq.size), freq / tail.size
