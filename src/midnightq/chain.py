"""Exact midnight-count Markov chain on a truncated lattice.

One day of the queue moves the count ``x`` to ``x - D + A`` where
``D ~ Binomial(min(x, N), mu)`` are the departures resolved at midnight and
``A ~ Poisson(lam)`` are the arrivals accumulated during the day.  The chain
is truncated at a configurable top state; any probability mass that would
land above it is folded into the top state so every row stays stochastic.
A day's step A - D leaves a fixed band of offsets only with probability
below 2^-60, so the kernel is stored and factored as that band.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs
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
    log_factorial = gammaln(d + 1.0)  # reversed, it is lnGamma(trials - d + 1)
    logpmf = (
        gammaln(trials + 1.0)
        - log_factorial
        - log_factorial[::-1]
        + d * math.log(prob)
        + (trials - d) * math.log1p(-prob)
    )
    return np.exp(logpmf)


# Tail mass a kernel row may drop: each row keeps the one-day steps outside
# of which either tail holds less than this.
_TAIL = 2.0**-60


@dataclass(frozen=True, eq=False)
class ChainKernel:
    """One-day transition matrix of the truncated midnight-count chain.

    Stored as its band: ``band[x, m]`` is the probability of the step from
    ``x`` to ``x - kl + m``, so ``kl`` is the largest step down and ``ku``
    the largest step up that a row keeps.  Entries for states outside
    {0, ..., truncation_level} are zero.  Read in column-major order, the
    array is the BLAS/LAPACK band storage of P^T.
    """

    truncation_level: int
    band: np.ndarray
    kl: int
    ku: int
    params: ModelParams

    @property
    def states(self) -> np.ndarray:
        return np.arange(self.truncation_level + 1)

    def step(self, pi: np.ndarray) -> np.ndarray:
        """One day of the chain applied to a row vector: ``pi @ P``."""
        size = self.truncation_level + 1
        return dgbmv(size, size, self.ku, self.kl, 1.0, self.band.T, pi)


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


def _step_reach(lam: float, mu: float, n: int) -> tuple[int, int]:
    """Largest one-day steps down and up, ``(kl, ku)``, that a row keeps.

    A day moves x to x - D + A with D <= min(x, N) departures, so the up
    steps of every row are bounded by the arrivals A, and the down steps by
    those of the saturated displacement law (D ~ Binomial(N, mu) is the
    stochastically largest departure count).  Each tail beyond the reach
    holds less than ``_TAIL``.
    """
    arrivals = poisson_pmf(lam, math.ceil(lam + 12.0 * math.sqrt(lam) + 30.0))
    at_least = np.cumsum(arrivals[::-1])[::-1]  # P(k <= A), summed from the far tail up
    ku = int(np.argmax(at_least < _TAIL)) - 1
    displacement = np.convolve(binomial_pmf(n, mu)[::-1], arrivals[: ku + 1])
    # index i of `displacement` is the step i - N
    below = int(np.argmax(np.cumsum(displacement) >= _TAIL))
    return max(n - below, 0), ku


def build_kernel(p: ModelParams, truncation: int | None = None) -> ChainKernel:
    """Build the one-day transition band on {0, ..., truncation}.

    Row 0 is the arrival law Poisson(lam); one more customer in service adds
    a survivor with probability 1 - mu, so row x + 1 is
    ``mu * row_x[y] + (1 - mu) * row_x[y - 1]``, a sum of positive terms.
    Rows x >= N shift the saturated row N.  Mass beyond the top state is
    folded into it.  Refuses with ValueError, before allocating, a
    truncation whose banded LU storage, ``8 (2 ku + kl + 1) (K + 1)``
    bytes, would take over half of physical memory.
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
    kl, ku = _step_reach(lam, mu, n)
    needed = 8 * (2 * ku + kl + 1) * (k_max + 1)
    available = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2
    if needed > available:
        raise ValueError(
            f"banded LU at truncation {k_max} (steps -{kl}..+{ku}) needs "
            f"{needed / 2**30:.1f} GiB, over half of physical memory "
            f"({available / 2**30:.1f} GiB); set a lower --truncation"
        )

    band = np.zeros((k_max + 1, kl + ku + 1))
    arrivals = poisson_pmf(lam, ku)
    # Log-space evaluation leaves the pmf's scale a few ulps of its log terms
    # off; the sum fixes it, since the dropped tail is below _TAIL.
    band[0, kl:] = arrivals / arrivals.sum()
    # 1 - mu rounds; its exact complement keeps the weights summing to one,
    # so N steps of the recurrence do not drift the row sums.
    keep = 1.0 - mu
    depart = 1.0 - keep
    for x in range(n):
        # band[x + 1, m] and band[x, m] describe the same step; band[x, m + 1]
        # the same next state.
        band[x + 1] = keep * band[x]
        band[x + 1, :-1] += depart * band[x, 1:]
    band[n + 1 :] = band[n]
    for x in range(max(k_max - ku + 1, 0), k_max + 1):
        top = k_max - x + kl  # column of state K in row x
        band[x, top] += band[x, top + 1 :].sum()
        band[x, top + 1 :] = 0.0
    return ChainKernel(truncation_level=k_max, band=band, kl=kl, ku=ku, params=p)


def _lapack_check(routine: str, info: int) -> None:
    """ConvergenceError for a failed LAPACK call; info > 0 is a zero pivot."""
    if info != 0:
        reason = f"singular system, zero pivot {info}" if info > 0 else f"bad argument {-info}"
        raise ConvergenceError(f"banded solve failed in {routine}: {reason}", residual=math.nan)


def stationary_pmf(kernel: ChainKernel, tol: float = 1e-12) -> StationaryPMF:
    """Solve pi = pi P on the truncated lattice.

    One banded LU solve of P^T - I with the balance equation of the state
    x = lam / mu, which carries high mass, replaced by pi_x = 1, then one
    step of iterative refinement with the same factor, then normalization.
    Raises UnstableRegimeError at load >= 1, where the untruncated chain
    has no stationary law, and ConvergenceError (carrying the residual) if
    the kernel holds non-finite entries, the factor is singular, or the
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
    band, kl, ku = kernel.band, kernel.kl, kernel.ku
    if not np.isfinite(band).all():
        raise ConvergenceError("kernel holds non-finite entries", residual=math.nan)
    size = kernel.truncation_level + 1
    pin = min(int(p.daily_arrival_rate / p.daily_service_prob), size - 1)
    # LAPACK band storage of P^T - I, column-major: column x holds row x of P
    # below ku rows of room for the pivoting fill-in.
    system = np.zeros((size, 2 * ku + kl + 1))
    system[:, ku:] = band
    system[:, ku + kl] -= 1.0
    # Row `pin` of P^T - I has entries in columns pin - ku .. pin + kl.
    cols = np.arange(max(pin - ku, 0), min(pin + kl + 1, size))
    system[cols, ku + kl + pin - cols] = 0.0
    system[pin, ku + kl] = 1.0
    factor, pivots, info = dgbtrf(system.T, ku, kl, overwrite_ab=True)
    _lapack_check("dgbtrf", info)

    def solve(rhs: np.ndarray) -> np.ndarray:
        x, info = dgbtrs(factor, ku, kl, rhs, pivots, overwrite_b=True)
        _lapack_check("dgbtrs", info)
        return x

    rhs = np.zeros(size)
    rhs[pin] = 1.0
    pi = solve(rhs)
    correction = pi - kernel.step(pi)
    correction[pin] = 1.0 - pi[pin]
    pi += solve(correction)
    pi /= pi.sum()
    if pi.min() < -1e-10:
        raise ConvergenceError(
            f"stationary solve produced negative mass {pi.min():.3e}",
            residual=float(np.abs(kernel.step(pi) - pi).sum()),
        )
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = float(np.abs(kernel.step(pi) - pi).sum())
    if not residual <= tol:
        raise ConvergenceError(
            f"stationary solve did not reach tol={tol:g}; residual={residual:.3e}",
            residual=residual,
        )
    return StationaryPMF(support=kernel.states, mass=pi, params=p, residual=residual)


# Days are drawn in blocks of fixed size, each block's uniforms and then its
# arrivals, so a path is a prefix of every longer path with the same seed.
_BLOCK_DAYS = 1 << 16
# A 53-bit uniform takes 2^53 equally likely values, so it cannot resolve a
# tail of mass below 2^-53; the departure tables drop such tails.
_RESOLUTION = 2.0**-53


def _path_rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=seed))


def _departure_cuts(busy: int, mu: float) -> tuple[int, list[float]]:
    """Inverse-CDF table of the Binomial(busy, mu) departures.

    Returns ``(offset, cuts)``: ``offset + bisect_right(cuts, u)`` is the
    departure count for a uniform ``u``.  The cuts are the first ``busy``
    CDF values, so the count never exceeds ``busy`` even if the cumulative
    sum ends a few ulps below one.  Cuts with less than ``_RESOLUTION`` of
    mass below or above them are dropped; the offset keeps the count.
    """
    pmf = binomial_pmf(busy, mu)
    cdf = np.cumsum(pmf[:-1])
    above = np.cumsum(pmf[:0:-1])  # above[j] = P(D >= busy - j)
    hi = busy - int(np.searchsorted(above, _RESOLUTION))
    lo = min(int(np.searchsorted(cdf, _RESOLUTION)), hi)
    return lo, cdf[lo:hi].tolist()


def simulate_path(
    p: ModelParams,
    horizon: int,
    seed,
    x0: int | None = None,
) -> SimulatedPath:
    """Simulate ``horizon`` days of the midnight count, reproducibly.

    Each day draws one uniform and one Poisson arrival count; the departures
    invert the Binomial(min(x, N), mu) CDF at the uniform.  The CDF table of
    a busy count is built when the path first visits it.
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

    tables: list = [None] * n  # busy count below N -> (offset, cuts)
    full_offset, full_cuts = _departure_cuts(n, mu)
    full_cuts = np.array(full_cuts)
    pos = 0
    while pos < horizon:
        days = min(_BLOCK_DAYS, horizon - pos)
        uniforms = rng.random(_BLOCK_DAYS)[:days]
        arrivals = rng.poisson(lam, _BLOCK_DAYS)[:days]
        # From x >= N a day's step depends on its draws alone, so the block's
        # saturated steps are inverted at once.
        saturated = arrivals - full_offset - np.searchsorted(full_cuts, uniforms, side="right")
        block = []
        append = block.append
        for u, a, step in zip(uniforms.tolist(), arrivals.tolist(), saturated.tolist()):
            if x >= n:
                x += step
            else:
                table = tables[x]
                if table is None:
                    table = tables[x] = _departure_cuts(x, mu)
                x += a - table[0] - bisect_right(table[1], u)
            append(x)
        counts[pos + 1 : pos + 1 + days] = block
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


_SE_BATCHES = 32


def batch_means_se(samples: np.ndarray) -> float:
    """Standard error of the mean of a correlated series, by batch means.

    The series is cut into ``_SE_BATCHES`` batches of equal length (fewer
    for a shorter series; the oldest leftover samples are dropped), and the
    spread of the batch means gives the standard error.  Needs at least two
    samples.
    """
    batches = min(_SE_BATCHES, samples.size)
    if batches < 2:
        raise ValueError("batch means need at least two samples")
    size = samples.size // batches
    means = samples[samples.size - batches * size :].reshape(batches, size).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


def empirical_pmf(counts: np.ndarray, burn_in: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Occupation frequencies of a path after discarding ``burn_in`` days."""
    tail = counts[burn_in:]
    if tail.size == 0:
        raise ValueError("burn_in leaves no samples")
    freq = np.bincount(tail)
    return np.arange(freq.size), freq / tail.size
