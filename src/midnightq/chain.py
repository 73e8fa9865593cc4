"""Exact midnight-count Markov chain on a truncated lattice.

One day of the queue moves the count ``x`` to ``x - D + A`` where
``D ~ Binomial(min(x, N), mu)`` are the departures resolved at midnight and
``A ~ Poisson(lam)`` are the arrivals accumulated during the day.  The chain
is truncated to a window of states [L, K], from ``stationary_window`` or
``_transient_window``; any probability mass that would land above K or below
L is folded into that end state so every row stays stochastic.  A day's step
A - D leaves a fixed band of offsets only with probability below 2^-60, so
the kernel is stored and factored as that band.
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

from .model import ModelParams, UnstableRegimeError


class ConvergenceError(RuntimeError):
    """Stationary solve failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def poisson_pmf(rate: float, first: int, last: int) -> np.ndarray:
    """Poisson pmf on {first, ..., last}, evaluated through log space."""
    k = np.arange(first, last + 1, dtype=float)
    return np.exp(-rate + k * math.log(rate) - gammaln(k + 1.0))


def binomial_pmf(trials: int, prob: float, first: int, last: int) -> np.ndarray:
    """Binomial pmf on {first, ..., last}, evaluated through log space."""
    d = np.arange(first, last + 1, dtype=float)
    logpmf = (
        gammaln(trials + 1.0)
        - gammaln(d + 1.0)
        - gammaln(trials - d + 1.0)
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

    The states are {lower, ..., truncation_level}.  Stored as its band:
    ``band[i, m]`` is the probability of the step from state ``x = lower +
    i`` to ``x - kl + m``, so ``kl`` is the largest step down and ``ku`` the
    largest step up that a row keeps.  Entries for states outside the
    window are zero.  Read in column-major order, the array is the
    BLAS/LAPACK band storage of P^T.
    """

    truncation_level: int
    band: np.ndarray
    kl: int
    ku: int
    params: ModelParams
    lower: int = 0

    @property
    def states(self) -> np.ndarray:
        return np.arange(self.lower, self.truncation_level + 1)

    def step(self, pi: np.ndarray) -> np.ndarray:
        """One day of the chain applied to a row vector: ``pi @ P``.

        scipy's dgbmv wants at least as many rows as the band is wide; the
        rows past the top state that a narrow lattice adds are zero rows.
        """
        size, width = self.band.shape
        return dgbmv(max(size, width), size, self.ku, self.kl, 1.0, self.band.T, pi)[:size]


@dataclass(frozen=True, eq=False)
class StationaryPMF:
    """Stationary distribution of the truncated chain."""

    support: np.ndarray
    mass: np.ndarray
    params: ModelParams
    residual: float

    def busy_server_mean(self) -> float:
        """Expected number of busy servers under the stationary law."""
        z = np.minimum(self.support, self.params.n_servers)
        return float(z @ self.mass)


def lattice_moments(states: np.ndarray, mass: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation of the law ``mass`` on integer ``states``."""
    k = states.astype(float)
    mean = float(k @ mass)
    return mean, math.sqrt(max(0.0, float((k - mean) ** 2 @ mass)))


@dataclass(frozen=True, eq=False)
class SimulatedPath:
    """A realized midnight-count trajectory."""

    counts: np.ndarray


def _memory_budget() -> int:
    """Bytes an array may take before it is refused: half of physical memory."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


def _check_budget(needed: int, what: str, advice: str) -> None:
    """Refuse with ValueError, naming ``what`` and ``advice``, ``needed``
    bytes over ``_memory_budget``; called before they are allocated."""
    available = _memory_budget()
    if needed > available:
        raise ValueError(
            f"{what} {needed / 2**30:.1f} GiB, over half of physical memory "
            f"({available / 2**30:.1f} GiB); {advice}"
        )


# Each tail cut from a law before a convolution holds less than this.
_TRIM = _TAIL / 1024


def _tails(pmf: np.ndarray, level: float) -> tuple[int, int]:
    """``(lo, hi)``: the longest tails ``pmf[:lo]`` and ``pmf[hi:]`` that each
    hold less than ``level``."""
    lo = int(np.searchsorted(np.cumsum(pmf), level))
    return lo, pmf.size - int(np.searchsorted(np.cumsum(pmf[::-1]), level))


def _trim(pmf: np.ndarray) -> tuple[int, np.ndarray]:
    """``(offset, pmf[offset:hi])``: each tail cut off holds less than ``_TRIM``."""
    lo, hi = _tails(pmf, _TRIM)
    return lo, pmf[lo:hi]


def _window(mean: float, variance: float, top: float, pmf) -> tuple[int, np.ndarray]:
    """``(first, pmf)``: a law on {0, ..., top}, near its mean, trimmed by ``_trim``.

    ``pmf(first, last)`` evaluates the law on {first, ..., last}.  It is
    called only within 12 standard deviations (plus 30) of the mean,
    outside of which each tail holds far less than ``_TRIM``, so the
    window holds O(sd) counts.
    """
    spread = 12.0 * math.sqrt(variance) + 30.0
    first = max(math.floor(mean - spread), 0)
    lo, kept = _trim(pmf(first, min(math.ceil(mean + spread), top)))
    return first + lo, kept


def _binomial_window(trials: int, prob: float) -> tuple[int, np.ndarray]:
    """Binomial(trials, prob) as a ``_window``."""
    mean = trials * prob
    return _window(
        mean, mean * (1.0 - prob), trials, lambda lo, hi: binomial_pmf(trials, prob, lo, hi)
    )


def _arrival_window(rate: float) -> tuple[int, np.ndarray]:
    """Poisson(rate) as a ``_window``."""
    return _window(rate, rate, math.inf, lambda lo, hi: poisson_pmf(rate, lo, hi))


def _step_law(busy: int, mu: float, arrivals: tuple[int, np.ndarray]) -> tuple[int, np.ndarray]:
    """``(first, pmf)``: one day's step A - D from ``busy`` busy servers.

    A has the law ``arrivals`` = ``(first, pmf)`` and D the law
    ``_binomial_window(busy, mu)``; index i of the pmf is the step first + i.
    """
    arrivals_first, arrival_pmf = arrivals
    offset, departures = _binomial_window(busy, mu)
    most = offset + departures.size - 1
    return arrivals_first - most, np.convolve(departures[::-1], arrival_pmf)


def _reaches(law: tuple[int, np.ndarray]) -> tuple[int, int]:
    """``(down, up)``: the largest steps down and up, each at least 0, whose
    tails still hold ``_TAIL``.

    ``law`` is a ``_step_law`` of trimmed laws, whose tails the trims lower
    by less than 2 ``_TRIM``, so each is held to that much less.  More busy
    servers only lower the step, so the up reach from a busy count bounds
    every state above it, and the down reach every state below it.
    """
    first, pmf = law
    lo, hi = _tails(pmf, _TAIL - 2 * _TRIM)
    return max(-(first + lo), 0), max(first + hi - 1, 0)


def build_kernel(
    p: ModelParams, truncation: int | None = None, lower: int = 0
) -> ChainKernel:
    """Build the one-day transition band on {lower, ..., truncation}.

    ``truncation`` defaults to the K of ``stationary_window``.  Row ``lower``
    is the ``_step_law`` from min(lower, N) busy servers, the law its up
    reach is read from, cut to the steps -kl..ku and normalized; for lower
    = 0 that is the arrival window of Poisson(lam) alone.  One more customer
    in service adds a survivor with probability 1 - mu, so row x + 1 is
    ``mu * row_x[y] + (1 - mu) * row_x[y - 1]``, a sum of positive terms.
    Rows x >= N shift the saturated row N.  Mass beyond the top state is
    folded into it, and mass below ``lower`` into ``lower``.  The up reach
    ``ku`` is that of row ``lower``, which bounds the rows above it, and the
    down reach ``kl`` that of the top row, min(K, N) busy, which bounds the
    rows below it.

    Refuses with ValueError, before allocating, a window whose banded LU
    storage, ``8 (2 ku + kl + 1) (K - lower + 1)`` bytes, would take over
    half of physical memory.
    """
    if truncation is None:
        truncation = stationary_window(p)[1]
    n = p.n_servers
    k_max, lower = int(truncation), int(lower)
    if not 0 <= lower <= k_max:
        raise ValueError(f"lower cut {lower} outside 0..{k_max}")
    mu = p.daily_service_prob
    arrivals = _arrival_window(p.daily_arrival_rate)
    kl = _reaches(_step_law(min(k_max, n), mu, arrivals))[0]
    law = _step_law(min(lower, n), mu, arrivals)
    ku = _reaches(law)[1]
    size = k_max - lower + 1
    _check_budget(
        8 * (2 * ku + kl + 1) * size,
        f"banded LU at truncation {k_max} (steps -{kl}..+{ku}) needs",
        "set a lower --truncation",
    )

    band = np.zeros((size, kl + ku + 1))
    first, steps = law
    lo = max(-kl - first, 0)  # index i of `steps` is the step first + i
    row = steps[lo : ku - first + 1]
    col = kl + first + lo
    # Log-space evaluation leaves a pmf's scale a few ulps of its log terms
    # off; the sum fixes it, since the dropped tails are below _TAIL.
    band[0, col : col + row.size] = row / row.sum()
    # 1 - mu rounds; its exact complement keeps the weights summing to one,
    # so N steps of the recurrence do not drift the row sums.
    keep = 1.0 - mu
    depart = 1.0 - keep
    for i in range(min(n - lower, size - 1)):
        # band[i + 1, m] and band[i, m] describe the same step; band[i, m + 1]
        # the same next state.
        band[i + 1] = keep * band[i]
        band[i + 1, :-1] += depart * band[i, 1:]
    saturated = max(n - lower, 0)
    if saturated < size:
        band[saturated + 1 :] = band[saturated]
    for i in range(max(size - ku, 0), size):
        top = size - 1 - i + kl  # column of state K in row i
        band[i, top] += band[i, top + 1 :].sum()
        band[i, top + 1 :] = 0.0
    if lower > 0:
        for i in range(min(kl, size)):
            bottom = kl - i  # column of state `lower` in row i
            band[i, bottom] += band[i, :bottom].sum()
            band[i, :bottom] = 0.0
    return ChainKernel(
        truncation_level=k_max, band=band, kl=kl, ku=ku, params=p, lower=lower
    )


def _lapack_check(routine: str, info: int) -> None:
    """ConvergenceError for a failed LAPACK call; info > 0 is a zero pivot."""
    if info != 0:
        reason = f"singular system, zero pivot {info}" if info > 0 else f"bad argument {-info}"
        raise ConvergenceError(f"banded solve failed in {routine}: {reason}", residual=math.nan)


def stationary_pmf(kernel: ChainKernel, tol: float = 1e-12) -> StationaryPMF:
    """Solve pi = pi P on the kernel's window [L, K]; the law is on 0..K,
    zero below L.

    One banded LU solve of P^T - I with the balance equation of the state
    x = lam / mu (held to the window), which carries high mass, replaced by
    pi_x = 1, then one step of iterative refinement with the same factor,
    then normalization.  Raises ConvergenceError (carrying the residual) if
    the kernel holds non-finite entries, the factor is singular, or the
    solve leaves negative mass or misses ``tol``.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    band, kl, ku = kernel.band, kernel.kl, kernel.ku
    if not np.isfinite(band).all():
        raise ConvergenceError("kernel holds non-finite entries", residual=math.nan)
    p, lower, top = kernel.params, kernel.lower, kernel.truncation_level
    size = band.shape[0]
    pin = min(max(int(p.daily_arrival_rate / p.daily_service_prob), lower), top) - lower
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
    mass = np.concatenate([np.zeros(lower), pi])
    return StationaryPMF(support=np.arange(top + 1), mass=mass, params=p, residual=residual)


# Days are drawn in blocks of fixed size, one uniform each, so a path is a
# prefix of every longer path with the same seed.
_BLOCK_DAYS = 1 << 16
# A 53-bit uniform takes 2^53 equally likely values, so it cannot resolve a
# tail of mass below 2^-53; the step tables drop such tails.
_RESOLUTION = 2.0**-53
# The saturated step table splits [0, 1) into this many equal cells.
_CELLS = 1 << 16


def _path_rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=seed))


def _step_cuts(busy: int, mu: float, arrivals: tuple[int, np.ndarray]) -> tuple[int, np.ndarray]:
    """Inverse-CDF table of one day's step A - D from ``busy`` busy servers.

    A has the law ``arrivals`` = ``(first, pmf)``, as from
    ``_arrival_window``.  Returns ``(offset, cuts)``: ``offset +
    bisect_right(cuts, u)`` is the step for a uniform ``u``.  The
    ``_step_law``, normalized, keeps the steps between its ``_tails`` of
    less than ``_RESOLUTION``; the cuts are its CDF at each kept step but
    the last, and the offset is the first kept step.  So the step never
    falls below -busy.
    """
    first, pmf = _step_law(busy, mu, arrivals)
    pmf /= pmf.sum()
    lo, hi = _tails(pmf, _RESOLUTION)
    return first + lo, np.cumsum(pmf)[lo : hi - 1]


def _cell_table(offset: int, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Guide table of ``_CELLS`` cells over [0, 1) for a step table.

    Cell k holds the step at u = k / ``_CELLS`` and a flag that is set when
    a cut falls inside the cell, (k, k + 1) / ``_CELLS``.  A uniform in an
    unflagged cell has its cell's step.
    """
    edges = np.arange(_CELLS + 1) / _CELLS
    at_edge = np.searchsorted(cuts, edges, side="right")
    below_next = np.searchsorted(cuts, edges[1:], side="left")
    return offset + at_edge[:-1], below_next != at_edge[:-1]


def _saturated_steps(
    uniforms: np.ndarray, offset: int, cuts: np.ndarray, cells: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """``offset + searchsorted(cuts, uniforms, side="right")`` through the cells.

    A 53-bit uniform times ``_CELLS`` is exact, so its cell is exact too;
    only the uniforms in flagged cells are searched.
    """
    steps, flags = cells
    cell = (uniforms * _CELLS).astype(np.intp)
    out = steps[cell]
    flagged = np.flatnonzero(flags[cell])
    out[flagged] = offset + np.searchsorted(cuts, uniforms[flagged], side="right")
    return out


def simulate_path(p: ModelParams, horizon: int, seed) -> SimulatedPath:
    """Simulate ``horizon`` days of the midnight count from x = N, reproducibly.

    Each day draws one uniform and inverts at it the CDF of that day's step
    A - D, A ~ Poisson(lam) and D ~ Binomial(min(x, N), mu).  From x >= N
    the step does not depend on x, so a block's saturated steps are all
    looked up at once in a cell table; below N the step table of a busy
    count is built when the path first visits it.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon!r}")
    n = p.n_servers
    mu = p.daily_service_prob
    rng = _path_rng(seed)

    x = n
    counts = np.empty(horizon + 1, dtype=np.int64)
    counts[0] = x

    arrivals = _arrival_window(p.daily_arrival_rate)
    # Below N, state x's next state is bases[x] + bisect_right(cuts[x], u).
    bases: list = [None] * n
    cuts: list = [None] * n
    full_offset, full_cuts = _step_cuts(n, mu, arrivals)
    cells = _cell_table(full_offset, full_cuts)
    pos = 0
    while pos < horizon:
        days = min(_BLOCK_DAYS, horizon - pos)
        uniforms = rng.random(_BLOCK_DAYS)[:days]
        saturated = _saturated_steps(uniforms, full_offset, full_cuts, cells)
        block = []
        append = block.append
        for u, step in zip(uniforms.tolist(), saturated.tolist()):
            if x >= n:
                x += step
            else:
                table = cuts[x]
                if table is None:
                    offset, table = _step_cuts(x, mu, arrivals)
                    table = cuts[x] = table.tolist()
                    bases[x] = x + offset
                x = bases[x] + bisect_right(table, u)
            append(x)
        counts[pos + 1 : pos + 1 + days] = block
        pos += days

    return SimulatedPath(counts=counts)


def _floor_of(*laws: tuple[int, np.ndarray]) -> int:
    """Largest k with P(Y < k) < ``_TAIL``, Y the sum of independent ``laws``.

    Each law is a window ``(first, pmf)``, trimmed by ``_trim``.  The trims
    move the computed P(Y < k) down by less than 2 ``_TRIM`` per law, so
    the level it is held to leaves that much room.
    """
    offset, law = 0, np.ones(1)
    for first, pmf in laws:
        offset += first
        law = np.convolve(law, pmf)
    return offset + _tails(law, _TAIL - 2 * len(laws) * _TRIM)[0]


def _saturated_cgf(p: ModelParams, busy) -> tuple[np.ndarray, np.ndarray]:
    """``(t, c(t))``: the cgf of a step Poisson(lam) - Binomial(k, mu) on t > 0,
    one row for each busy count k of ``busy`` (a count or an array)."""
    lam, mu = p.daily_arrival_rate, p.daily_service_prob
    t = np.geomspace(1e-6, 20.0, 512)
    k = np.asarray(busy, dtype=float)[..., None]
    return t, lam * np.expm1(t) + k * np.log1p(mu * np.expm1(-t))


def _saturated_rise(p: ModelParams, days: int, level: float) -> int:
    """Least r >= 0 with P(S_k > r) <= ``level`` for every k <= ``days``; 0
    for no days.

    Chernoff, S_k the sum of k saturated steps: P(S_k >= r) <= exp(k c(t) -
    t r) for every t > 0, taken at the best t of ``_saturated_cgf``'s grid.
    """
    t, cgf = _saturated_cgf(p, p.n_servers)
    rise = 0.0
    for first in range(1, days + 1, 4096):
        k = np.arange(first, min(first + 4096, days + 1))[:, None]
        rise = max(rise, float(((k * cgf - math.log(level)) / t).min(axis=1).max()))
    return math.ceil(rise)


def stationary_window(p: ModelParams) -> tuple[int, int]:
    """States [L, K] that the stationary count leaves, below or above, with
    probability at most ``_TAIL``: ``_transient_window``'s couplings as the
    horizon grows.  Its floor becomes Poisson(lam / mu), and L is that law's
    ``_floor_of``.  Above, fix a busy level k, lam / mu < k <= N.  From x >=
    k at least k servers are busy, and with shared departure draws a start
    below k only lowers the next count, so X - k is at most the supremum of
    the sums of steps Poisson(lam) - Binomial(k, mu).  Where their cgf c(t)
    <= 0 (``_saturated_cgf``), exp(t S) is a supermartingale, so P(X - k >=
    j) <= exp(-t j) (Kingman, 1970).  K is the least k + ceil(60 ln 2 / t),
    t the largest such t of the grid, over up to 64 levels spaced
    geometrically over (lam / mu, N], N included: at low load K can be
    below N.  Refuses load >= 1 (UnstableRegimeError) and a load so near 1
    that no t qualifies at k = N (ValueError; K would pass N + 4.1e7).
    """
    if p.load >= 1.0:
        raise UnstableRegimeError(f"no stationary law at load {p.load:.6g} >= 1")
    n, offered = p.n_servers, p.daily_arrival_rate / p.daily_service_prob
    busy = np.unique(np.ceil(np.geomspace(n, offered, 64, endpoint=False)))
    t, cgf = _saturated_cgf(p, busy)
    rates = np.where(cgf <= 0.0, t, 0.0).max(axis=1)  # 0 where no t qualifies
    if not rates[-1] > 0.0:
        raise ValueError(f"load {p.load!r} is too close to 1 to bound the stationary tail")
    qualified = rates > 0.0
    tops = busy[qualified] + np.ceil(-math.log(_TAIL) / rates[qualified])
    return _floor_of(_arrival_window(offered)), int(tops.min())


def stationary_kernel(p: ModelParams, truncation: int | None = None) -> ChainKernel:
    """``build_kernel`` on ``stationary_window``, K set by ``truncation`` if given.

    Refuses a ``truncation`` below min(N, K): at low load the default K is
    below N, and any K above it also bounds the stationary count.
    """
    lower, top = stationary_window(p)
    if truncation is None:
        truncation = top
    elif truncation < min(p.n_servers, top):
        floor = (f"the server count {p.n_servers}" if p.n_servers <= top
                 else f"the default top {top}")
        raise ValueError(f"--truncation {truncation} is below {floor}")
    return build_kernel(p, truncation, lower)


def _transient_window(p: ModelParams, horizon: int) -> tuple[int, int]:
    """States [L, K] that the count from a full system, x0 = N, stays in
    for ``horizon`` days.

    Below: with infinitely many servers every customer leaves each day with
    probability mu, and a coupling of departures keeps the count above that
    system's: with q = 1 - mu, X_s >=st Binomial(N, q^s) + Poisson(lam (1 -
    q^s) / mu).  L is the least ``_floor_of`` that law over the days s <=
    horizon, so each day the count is below L with probability at most
    ``_TAIL``.

    Above: a day from x moves the count at most as far as a day from max(x,
    N) when the servers share their departure draws, so X_s - N is at most
    the walk W_s = max(W_{s-1}, 0) + xi_s from 0 with saturated steps xi.
    Unrolled, W_s exceeds r only if some sum of 1..s consecutive steps
    exceeds r.  ``_saturated_rise`` bounds each of these horizon (horizon +
    3) / 2 sums at level ``_TAIL`` / (horizon + 3), so the count passes N +
    r with probability at most horizon * ``_TAIL`` / 2.  K is N + r.  At
    horizon 0 the window is [N, N].
    """
    n = p.n_servers
    lam = p.daily_arrival_rate
    mu = p.daily_service_prob
    log_keep = math.log1p(-mu)
    lower = n
    for s in range(1, horizon + 1):
        survive = math.exp(s * log_keep)
        arrived = _arrival_window(-lam * math.expm1(s * log_keep) / mu)
        if n * survive < _TAIL:
            # Every later day's law is >=st this Poisson law, whose mean
            # only grows with s.
            lower = min(lower, _floor_of(arrived))
            break
        lower = min(lower, _floor_of(_binomial_window(n, survive), arrived))
    return lower, n + _saturated_rise(p, horizon, _TAIL / (horizon + 3))


def transient_pmf(p: ModelParams, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of the count ``horizon`` days after a full system, x0 = N.

    Returns ``(states, mass)``.  The banded kernel on the window of
    ``_transient_window`` steps the point mass at N ``horizon`` times.
    The count leaves the window within the horizon with probability at
    most 1.5 horizon 2^-60, and each day's kernel drops less than 2^-59 of
    mass, so the law is exact to within horizon 2^-58 in total variation.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon!r}")
    lower, top = _transient_window(p, horizon)
    kernel = build_kernel(p, top, lower)
    pi = np.zeros(top - lower + 1)
    pi[p.n_servers - lower] = 1.0
    for _ in range(horizon):
        pi = kernel.step(pi)
    return kernel.states, pi


def simulate_replications(p: ModelParams, horizon: int, n_paths: int, seed) -> np.ndarray:
    """Final-day counts of ``n_paths`` independent replications from a full
    system.

    Each count inverts the CDF of the exact day-``horizon`` law
    (``transient_pmf``) at one uniform of the seeded stream.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths!r}")
    states, mass = transient_pmf(p, horizon)
    cdf = np.cumsum(mass)
    cdf /= cdf[-1]
    return states[np.searchsorted(cdf, _path_rng(seed).random(n_paths), side="right")]


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


# Memory one row of a law's table takes: 16 bytes in its two arrays, and up
# to 280 more while it is written as JSON (138 as CSV), measured for 10^6
# `simulate` states (a `formula` grid point: 296 and 168 bytes).
_ROW_BYTES = 512


def empirical_pmf(counts: np.ndarray, burn_in: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Occupation frequencies of a path after discarding ``burn_in`` days.

    Refuses with ValueError, before allocating, a path whose states 0..max
    would take over ``_memory_budget`` at ``_ROW_BYTES`` each.
    """
    tail = counts[burn_in:]
    if tail.size == 0:
        raise ValueError("burn_in leaves no samples")
    top = int(tail.max())
    _check_budget(
        _ROW_BYTES * (top + 1),
        f"occupation frequencies of states 0..{top} need",
        "lower --steps or the load",
    )
    freq = np.bincount(tail)
    return np.arange(freq.size), freq / tail.size
