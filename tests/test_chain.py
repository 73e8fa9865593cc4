import math

import numpy as np
import pytest

from mpmath import mp
from scipy import stats
from scipy.optimize import brentq

from midnightq import (
    ChainKernel,
    ModelParams,
    SolverError,
    build_kernel,
    simulate_path,
    simulate_replications,
    stationary_pmf,
    stationary_window,
    transient_pmf,
)
from midnightq import chain
from midnightq.chain import (
    _CELLS,
    _CUT,
    _TAIL,
    _arrival_window,
    _binomial_window,
    _busy_rates,
    _cell_table,
    _floor_of,
    _saturated_steps,
    _step_cuts,
    _step_law,
    _transient_window,
    _trim,
    batch_means_se,
    binomial_pmf,
    empirical_pmf,
    poisson_pmf,
    stationary_kernel,
)
from midnightq.cli import csv_table as pmf_csv

# The point mass at zero arrivals: a step table over it is a departure table.
_NO_ARRIVALS = (0, np.array([1.0]))


def tv(a: np.ndarray, b: np.ndarray) -> float:
    width = max(a.size, b.size)
    pa = np.zeros(width)
    pa[: a.size] = a
    pb = np.zeros(width)
    pb[: b.size] = b
    return 0.5 * float(np.abs(pa - pb).sum())


def dense_rows(kernel: ChainKernel) -> np.ndarray:
    """The kernel's band spread into the full square matrix on its window."""
    size = kernel.band.shape[0]
    width = kernel.band.shape[1]
    rows = np.zeros((size, size + width))
    for x in range(size):
        rows[x, x : x + width] = kernel.band[x]  # column x + m is state x - kl + m
    return rows[:, kernel.kl : kernel.kl + size]


class TestBuildKernel:
    def test_single_server_hand_convolution(self):
        # From state 1: next state 0 needs one departure and zero arrivals.
        kernel = build_kernel(ModelParams(1, 0.4, 0.5), truncation=30)
        assert dense_rows(kernel)[1, 0] == pytest.approx(0.5 * math.exp(-0.4), rel=1e-14)

    def test_rows_are_stochastic(self, params_small):
        rows = dense_rows(build_kernel(params_small))
        sums = rows.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-12
        assert rows.min() >= 0.0

    def test_empty_state_row_is_truncated_poisson(self):
        p = ModelParams(4, 1.3, 0.3)
        kernel = build_kernel(p, truncation=40)
        expected = poisson_pmf(1.3, 0, 40)
        expected[-1] += 1.0 - expected.sum()
        assert np.abs(dense_rows(kernel)[0] - expected).max() <= 1e-15

    @pytest.mark.parametrize("window", ["from 0", "stationary", "transient"])
    def test_lowest_row_is_the_step_law_its_up_reach_reads(self, window, params_small,
                                                           params_large):
        # Row L is _step_law over _arrival_window, the law ku is read from,
        # cut to the steps -kl..ku and normalized, bit for bit; with L > 0
        # its steps below 0 are folded into L.  From 0 (N = 18), on the
        # stationary window at N = 500 (L = 303) and on a 10-day transient
        # window at N = 400.
        if window == "from 0":
            kernel = build_kernel(params_small)
        elif window == "stationary":
            kernel = stationary_kernel(params_large)
        else:
            lower, top = _transient_window(limit_params(400), 10)
            kernel = build_kernel(limit_params(400), top, lower)
        p, kl, ku, lower = kernel.params, kernel.kl, kernel.ku, kernel.lower
        assert (lower > 0) == (window != "from 0")
        assert kernel.band.shape[0] > ku  # row L reaches no fold at the top
        first, steps = _step_law(min(lower, p.n_servers), p.daily_service_prob,
                                 _arrival_window(p.daily_arrival_rate))
        lo = max(-kl - first, 0)
        row = steps[lo : ku - first + 1]
        expected = np.zeros(kl + ku + 1)
        expected[kl + first + lo : kl + first + lo + row.size] = row / row.sum()
        if lower > 0:
            expected[kl] += expected[:kl].sum()
            expected[:kl] = 0.0
        assert np.array_equal(kernel.band[0], expected)

    def test_truncation_below_n_past_kingman_bound_rejected(self):
        with pytest.raises(ValueError, match=r"^--truncation 9 may cut up to 0\.004 of the law "
                           r"above it \(Kingman's bound\); the default top is 33$"):
            stationary_kernel(ModelParams(10, 1.0, 0.5), truncation=9)

    @pytest.mark.parametrize("n, lam", [(18, 3.03), (66, 11.37), (500, 90.95), (500, 93.4)])
    def test_truncation_bound_covers_the_cut_tail(self, n, lam):
        # Kingman's bound on P(X > K), the least exp(-t (K + 1 - k)) over the
        # busy levels, is at least the windowed law's mass above K for every
        # K from N to the default top, and stationary_kernel refuses a K
        # exactly where it passes _CUT, quoting it.
        p = ModelParams.from_mean_los(n, lam, 5.3)
        pi = stationary_pmf(stationary_kernel(p))
        busy, rates = _busy_rates(p)
        cuts = np.arange(n, pi.support[-1])
        bounds = np.exp(-rates[:, None] * np.clip(cuts + 1 - busy[:, None], 0, None)).min(axis=0)
        above = np.cumsum(pi.mass[::-1])[::-1][cuts - pi.support[0] + 1]
        assert np.all(above <= bounds)
        for k_max, bound in zip(cuts[::25], bounds[::25]):
            if bound <= _CUT:
                assert stationary_kernel(p, int(k_max)).truncation_level == k_max
            else:
                with pytest.raises(ValueError, match=f"up to {bound:.2g} of the law"):
                    stationary_kernel(p, int(k_max))

    def test_default_truncation_clears_server_count(self, params_large):
        # build_kernel's default truncation is the K of stationary_window.
        assert stationary_window(params_large)[1] > params_large.n_servers
        assert build_kernel(params_large).truncation_level == stationary_window(params_large)[1]

    @pytest.mark.parametrize("n, lam", [(18, 3.03), (66, 11.37), (500, 90.95)])
    def test_stationary_window_top_is_kingman_bound(self, n, lam):
        # K - N = ceil(60 ln 2 / t) at a grid point t at or below the root t*
        # of the saturated step's cgf, so K is at least Kingman's bound at t*
        # and, the grid's ratio being 1.033, not far above it.
        p = ModelParams.from_mean_los(n, lam, 5.3)
        mu = p.daily_service_prob
        root = brentq(lambda t: lam * math.expm1(t) + n * math.log1p(mu * math.expm1(-t)),
                      1e-4, 5.0)
        least = math.ceil(60 * math.log(2) / root)
        top = stationary_window(p)[1]
        assert least <= top - n <= 1.04 * least + 1

    @pytest.mark.parametrize("n, load, window", [
        (18, 3.03 * 5.3 / 18, (0, 359)),
        (66, 11.37 * 5.3 / 66, (7, 496)),
        (500, 90.95 * 5.3 / 500, (303, 1544)),
        (500, 0.98, (309, 2386)),
        (20_000, 0.99, (18_578, 23_764)),
    ])
    def test_stationary_window_where_n_busy_bounds_the_count(self, n, load, window):
        # At these loads no busy level below N bounds the count more tightly.
        p = ModelParams.from_mean_los(n, load * n / 5.3, 5.3)
        assert stationary_window(p) == window

    def test_window_of_load_within_1e_9_of_one_refused(self):
        p = ModelParams(5, 5 * 0.25 * (1 - 1e-9), 0.25)
        with pytest.raises(ValueError, match="too close to 1"):
            stationary_window(p)

    def test_kernel_too_large_for_memory_refused(self):
        # N = 500 at load 0.999 with a truncation of 10^9 states: the banded
        # LU storage would take terabytes.
        p = ModelParams.from_mean_los(500, 0.999 * 500 / 5.3, 5.3)
        with pytest.raises(ValueError, match="--truncation"):
            build_kernel(p, truncation=10**9)

    def test_row_sums_random_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            mu = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(0.2, 1.3) * n * mu)
            kernel = build_kernel(ModelParams(n, lam, mu), truncation=n + 60)
            assert np.abs(dense_rows(kernel).sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize(
        "n, lam, mu", [(1, 0.4, 0.5), (18, 3.03, 1 / 5.3), (66, 11.37, 1 / 5.3), (500, 90.95, 1 / 5.3)]
    )
    def test_rows_match_scipy_convolution(self, n, lam, mu):
        # Independent rows: Binomial(min(x, N), 1 - mu) survivors plus the
        # x - N waiting, convolved with Poisson(lam), beyond-K mass on K.
        kernel = build_kernel(ModelParams(n, lam, mu))
        k_max = kernel.truncation_level
        rows = dense_rows(kernel)
        arrivals = stats.poisson.pmf(np.arange(k_max + 300), lam)
        for x in sorted({0, n // 2, max(n - 1, 0), n, n + 1, (n + k_max) // 2, k_max - 1, k_max}):
            busy = min(x, n)
            full = np.convolve(stats.binom.pmf(np.arange(busy + 1), busy, 1.0 - mu), arrivals)
            expected = np.zeros(k_max + 1)
            lo = x - busy  # full[j] is the next state lo + j
            expected[lo:] = full[: k_max + 1 - lo]
            expected[-1] += full[k_max + 1 - lo :].sum()
            assert np.abs(rows[x] - expected).sum() <= 1e-13, x

    def test_top_state_holds_only_its_tail(self, params_large):
        # The top state gets the mass that truly lands beyond it, about 7e-21
        # at N = 500, not each row's rounding error.
        pi = stationary_pmf(build_kernel(params_large))
        assert pi.mass[-1] <= 1e-18

    @pytest.mark.parametrize(
        "n, lam, lower",
        [(18, 3.03, 5), (18, 3.03, 18), (18, 3.03, 30), (66, 11.37, 40), (500, 90.95, 303)],
    )
    def test_window_rows_match_scipy_convolution(self, n, lam, lower):
        # As above, with mass below the window folded into its lowest state;
        # lower = 30 > N = 18 leaves customers waiting in every row.
        mu = 1 / 5.3
        kernel = build_kernel(ModelParams(n, lam, mu), lower=lower)
        k_max = kernel.truncation_level
        assert kernel.states[0] == lower and kernel.states[-1] == k_max
        rows = dense_rows(kernel)
        arrivals = stats.poisson.pmf(np.arange(k_max + 300), lam)
        checked = {lower, lower + 1, n, n + 1, (lower + k_max) // 2, k_max}
        for x in sorted(x for x in checked if x >= lower):
            busy = min(x, n)
            full = np.convolve(stats.binom.pmf(np.arange(busy + 1), busy, 1.0 - mu), arrivals)
            nxt = np.zeros(k_max + 1)
            lo = x - busy  # full[j] is the next state lo + j
            nxt[lo:] = full[: k_max + 1 - lo]
            nxt[-1] += full[k_max + 1 - lo :].sum()
            expected = nxt[lower:]
            expected[0] += nxt[:lower].sum()
            assert np.abs(rows[x - lower] - expected).sum() <= 1e-13, x

    def test_window_up_reach_comes_from_its_lowest_row(self, params_large):
        # Row 303 at N = 500 steps by A - D with D ~ Binomial(303, mu): ku is
        # its last step whose upper tail still holds 2^-60 (the full band's
        # row 0 reaches 186).
        kernel = build_kernel(params_large, lower=303)
        lam, mu = params_large.daily_arrival_rate, params_large.daily_service_prob
        steps = np.convolve(
            stats.binom.pmf(np.arange(304), 303, mu)[::-1], stats.poisson.pmf(np.arange(600), lam)
        )  # index i is the step i - 303
        at_least = np.cumsum(steps[::-1])[::-1]
        assert at_least[303 + kernel.ku + 1] < 2.0**-60 <= at_least[303 + kernel.ku]
        assert kernel.ku < build_kernel(params_large).ku

    @pytest.mark.parametrize("fixture", ["params_small", "params_medium", "params_large"])
    def test_reaches_hold_the_step_tails(self, fixture, request):
        # On a lattice from 0, row 0 steps by the arrivals alone: ku is their
        # last step whose upper tail still holds 2^-60.  kl is the last step
        # down whose lower tail still holds 2^-60 under the top row's step
        # A - D, here D ~ Binomial(N, mu), which bounds every row's.
        p = request.getfixturevalue(fixture)
        kernel = build_kernel(p)
        n, lam, mu = p.n_servers, p.daily_arrival_rate, p.daily_service_prob
        assert stats.poisson.sf(kernel.ku, lam) < 2.0**-60 <= stats.poisson.sf(kernel.ku - 1, lam)
        steps = np.convolve(
            stats.binom.pmf(np.arange(n + 1), n, mu)[::-1],
            stats.poisson.pmf(np.arange(kernel.ku + 1), lam),
        )  # index i is the step i - n
        below = np.cumsum(np.concatenate([[0.0], steps]))  # below[i] = P(step < i - n)
        assert below[n - kernel.kl] < 2.0**-60 <= below[n - kernel.kl + 1]

    @pytest.mark.parametrize("n, lam, mu, k_max, lower", [
        (2000, 0.5 * 2000 / 5.3, 1 / 5.3, None, None),  # the stationary window
        (100_000, 100.0, 0.5, 2000, 0),  # a window [0, 2000] set by hand
    ])
    def test_window_below_n_takes_kl_from_its_top_row(self, n, lam, mu, k_max, lower):
        # No row of a window whose top K is below N has more than K busy
        # servers: kl is the last step down whose lower tail still holds
        # 2^-60 under A - D, D ~ Binomial(K, mu), and the rows stay stochastic.
        p = ModelParams(n, lam, mu)
        kernel = stationary_kernel(p) if k_max is None else build_kernel(p, k_max, lower)
        top = kernel.truncation_level
        assert top < n
        steps = np.convolve(
            stats.binom.pmf(np.arange(top + 1), top, mu)[::-1],
            stats.poisson.pmf(np.arange(kernel.ku + 1), lam),
        )  # index i is the step i - top
        below = np.cumsum(np.concatenate([[0.0], steps]))  # below[i] = P(step < i - top)
        assert below[top - kernel.kl] < 2.0**-60 <= below[top - kernel.kl + 1]
        rows = dense_rows(kernel)
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
        assert rows.min() >= 0.0

    def test_window_outside_lattice_rejected(self, params_small):
        with pytest.raises(ValueError, match="lower cut"):
            build_kernel(params_small, truncation=100, lower=101)

    @pytest.mark.parametrize("k_max", [18, 20, 30, 40])
    def test_lattice_narrower_than_band_steps_and_solves(self, params_small, k_max):
        # At N = 18 a row keeps the steps -18..+28, so these lattices hold
        # fewer states than the band is wide.  stationary_kernel refuses
        # them, since they cut the law; build_kernel takes any K.
        kernel = build_kernel(params_small, truncation=k_max)
        assert kernel.band.shape[0] < kernel.band.shape[1]
        rows = dense_rows(kernel)
        pi = stationary_pmf(kernel)
        assert pi.residual <= 1e-12
        assert np.abs(kernel.step(pi.mass) - pi.mass @ rows).max() <= 1e-15
        system = rows.T - np.eye(k_max + 1)
        system[0] = 1.0
        rhs = np.zeros(k_max + 1)
        rhs[0] = 1.0
        assert tv(pi.mass, np.linalg.solve(system, rhs)) <= 1e-13

    @pytest.mark.parametrize("lower, k_max, excess", [
        (40, 40, -45), (25, 30, -40), (0, 45, -1), (0, 46, 0), (0, 47, 1),
    ])
    def test_step_is_the_dense_product_at_every_lattice_size(self, params_small, lower, k_max,
                                                             excess):
        # One state, fewer states than the band is wide, one fewer, as many
        # and one more: the step is one dgbmv call at every size.
        kernel = build_kernel(params_small, truncation=k_max, lower=lower)
        assert kernel.band.shape[0] - kernel.band.shape[1] == excess
        pi = np.random.default_rng(k_max).dirichlet(np.ones(k_max - lower + 1))
        assert np.abs(kernel.step(pi) - pi @ dense_rows(kernel)).max() <= 1e-15


class TestStationaryPMF:
    def test_small_system_residual_and_flow_balance(self, params_small):
        kernel = build_kernel(params_small)
        pi = stationary_pmf(kernel, tol=1e-12)
        assert pi.residual <= 1e-12
        assert abs(pi.mass.sum() - 1.0) <= 1e-12
        lam = params_small.daily_arrival_rate
        mu = params_small.daily_service_prob
        assert abs(lam - mu * pi.busy_server_mean()) <= 1e-8

    def test_tiny_arrival_rate_concentrates_at_zero(self):
        p = ModelParams(5, 1e-9, 0.5)
        pi = stationary_pmf(build_kernel(p, truncation=30))
        assert pi.mass[0] == pytest.approx(1.0, abs=1e-7)

    def test_medium_system_mode_near_offered_load(self, params_medium):
        pi = stationary_pmf(build_kernel(params_medium))
        offered = params_medium.daily_arrival_rate * params_medium.mean_los
        assert abs(int(np.argmax(pi.mass)) - offered) <= 2.0

    def test_truncation_doubling_is_invisible(self, params_small):
        k1 = build_kernel(params_small)
        k2 = build_kernel(params_small, truncation=2 * k1.truncation_level)
        pi1 = stationary_pmf(k1, tol=1e-13)
        pi2 = stationary_pmf(k2, tol=1e-13)
        assert tv(pi1.mass, pi2.mass) <= 1e-10

    def test_unreachable_tolerance_raises_with_residual(self, params_small):
        kernel = build_kernel(params_small)
        with pytest.raises(SolverError) as err:
            stationary_pmf(kernel, tol=1e-17)
        assert err.value.residual > 1e-17

    def test_invalid_tolerance_rejected(self, params_small):
        kernel = build_kernel(params_small)
        with pytest.raises(ValueError, match="tol"):
            stationary_pmf(kernel, tol=0.0)

    def test_nan_tolerance_rejected(self, params_small):
        kernel = build_kernel(params_small)
        with pytest.raises(ValueError, match="tol must be positive, got nan"):
            stationary_pmf(kernel, tol=math.nan)

    def test_matches_high_precision_solve(self, params_small):
        # Referee: the same truncated kernel, its float64 entries taken
        # exactly, solved by LU in 40-digit arithmetic.
        kernel = build_kernel(params_small, truncation=80)
        rows = dense_rows(kernel)
        k = rows.shape[0]
        with mp.workdps(40):
            a = mp.matrix(k, k)
            for i in range(k):
                for j in range(k):
                    a[i, j] = mp.mpf(float(rows[j, i])) - (1 if i == j else 0)
            for j in range(k):
                a[0, j] = mp.mpf(1)
            b = mp.matrix(k, 1)
            b[0] = mp.mpf(1)
            x = mp.lu_solve(a, b)
            referee = np.array([float(x[i]) for i in range(k)])
        assert tv(stationary_pmf(kernel).mass, referee) <= 1e-14

    @pytest.mark.parametrize("fixture", ["params_medium", "params_large"])
    def test_window_law_matches_full_lattice(self, fixture, request):
        # The law solved on [L, K] against the one on [0, K]: the full
        # lattice holds at most 2^-60 below L, and the two agree to 1e-13.
        p = request.getfixturevalue(fixture)
        window = stationary_kernel(p)
        assert window.lower > 0
        full = stationary_pmf(build_kernel(p, window.truncation_level)).mass
        pi = stationary_pmf(window).mass
        assert pi.size == full.size
        assert not pi[: window.lower].any()
        assert full[: window.lower].sum() <= 2.0**-60
        assert tv(pi, full) <= 1e-13

    @pytest.mark.parametrize("n, lam, mu, top", [
        (2000, 0.5 * 2000 / 5.3, 1 / 5.3, 1411), (200, 5.0, 0.5, 62),
    ])
    def test_low_load_window_top_is_below_n(self, n, lam, mu, top):
        # A busy level below N bounds the count at low load: the full lattice
        # 0..N + 100 holds at most 2^-60 above the window's top K < N, and
        # the law solved on the window agrees with it to 1e-13.
        p = ModelParams(n, lam, mu)
        window = stationary_kernel(p)
        assert window.truncation_level == top
        full = stationary_pmf(build_kernel(p, n + 100)).mass
        pi = stationary_pmf(window).mass
        assert full[top + 1 :].sum() <= 2.0**-60
        assert tv(pi, full) <= 1e-13

    def test_overloaded_chain_refused(self):
        with pytest.raises(SolverError, match="load"):
            stationary_pmf(build_kernel(ModelParams(5, 1.5, 0.25)))

    def test_nan_residual_refused(self, params_small):
        kernel = build_kernel(params_small, truncation=40)
        band = kernel.band.copy()
        band[3, 5] = np.nan
        kernel = ChainKernel(40, band, kernel.kl, kernel.ku, params_small)
        with pytest.raises(SolverError):
            stationary_pmf(kernel)

    def test_singular_factor_refused(self, params_small):
        # The identity kernel: every state absorbing, P^T - I singular.
        kernel = build_kernel(params_small, truncation=40)
        band = np.zeros_like(kernel.band)
        band[:, kernel.kl] = 1.0
        kernel = ChainKernel(40, band, kernel.kl, kernel.ku, params_small)
        with pytest.raises(SolverError, match="singular"):
            stationary_pmf(kernel)

    def test_negative_mass_refused_with_residual(self, params_small, monkeypatch):
        # A solve that leaves a state's mass below zero is refused, with the
        # residual of the law it gave.
        real = chain.dgbsv

        def negated(*args, **kwargs):
            lub, piv, pi, info = real(*args, **kwargs)
            pi[pi.argmax()] *= -1.0
            return lub, piv, pi, info

        monkeypatch.setattr(chain, "dgbsv", negated)
        with pytest.raises(SolverError, match=r"^stationary solve produced negative mass -\d") as err:
            stationary_pmf(build_kernel(params_small))
        assert math.isfinite(err.value.residual) and err.value.residual > 0.0

    def test_one_solve_residual_sweep(self):
        # One banded LU solve, without refinement, on 40 seeded systems (N
        # up to 2,000, load 0.01-0.99, mean stay 1.05-50 days) and two
        # near-critical ones: each law balances to 1e-14 and its flow to 1e-8.
        rng = np.random.default_rng(2026)
        systems = [(int(rng.integers(1, 2001)), rng.uniform(0.01, 0.99), rng.uniform(1.05, 50))
                   for _ in range(40)]
        for n, load, mean_los in [*systems, (500, 0.99, 5.3), (20_000, 0.99, 5.3)]:
            p = ModelParams.from_mean_los(n, load * n / mean_los, mean_los)
            pi = stationary_pmf(stationary_kernel(p))
            assert pi.residual <= 1e-14, (n, load, mean_los)
            flow = p.daily_arrival_rate - p.daily_service_prob * pi.busy_server_mean()
            assert abs(flow) <= 1e-8, (n, load, mean_los)


class TestSimulatePath:
    def test_fixed_seed_reproduces_path(self, params_small):
        a = simulate_path(params_small, 4000, seed=42)
        b = simulate_path(params_small, 4000, seed=42)
        assert np.array_equal(a.counts, b.counts)

    def test_path_length_and_start(self, params_small):
        path = simulate_path(params_small, 1, seed=0)
        assert path.counts.size == 2
        assert path.counts[0] == params_small.n_servers

    def test_zero_horizon_rejected(self, params_small):
        with pytest.raises(ValueError, match="horizon"):
            simulate_path(params_small, 0, seed=0)

    def test_departures_bounded_by_busy_servers(self, params_small):
        n = params_small.n_servers
        path = simulate_path(params_small, 20_000, seed=3).counts
        assert path.min() >= 0
        # one day can remove at most min(x, n) customers
        assert np.all(path[1:] >= np.maximum(path[:-1] - n, 0))

    @pytest.mark.parametrize("fixture", ["params_small", "params_medium"])
    def test_simulation_matches_stationary_solve(self, fixture, request):
        # Ten-million-day occupation frequencies as an independent oracle.
        params = request.getfixturevalue(fixture)
        pi = stationary_pmf(build_kernel(params))
        path = simulate_path(params, 10_000_000, seed=7)
        _, freq = empirical_pmf(path.counts, burn_in=10_000)
        assert tv(freq, pi.mass) < 0.005

    def test_one_day_law_matches_kernel(self, params_small):
        # Each visit to a state draws an independent next state, so the
        # next-day counts from a state are multinomial on its kernel row.
        counts = simulate_path(params_small, 1_000_000, seed=11).counts
        rows = dense_rows(build_kernel(params_small))
        visited = np.bincount(counts[:-1])
        n = params_small.n_servers
        # The three most visited states lie below N; N and N + 1 add the
        # saturated table.
        for state in [*np.argsort(visited)[-3:], n, n + 1]:
            nxt = counts[1:][counts[:-1] == state]
            row = rows[state]
            expected_tv = float(np.sqrt(row * (1 - row) / (2 * math.pi * nxt.size)).sum())
            assert tv(np.bincount(nxt) / nxt.size, row) <= 4 * expected_tv

    @pytest.mark.parametrize("short, long", [(1000, 5000), (70_000, 140_000)])
    def test_path_is_prefix_of_longer_path(self, params_small, short, long):
        a = simulate_path(params_small, short, seed=4).counts
        b = simulate_path(params_small, long, seed=4).counts
        assert np.array_equal(a, b[: short + 1])

    def test_large_pool_smoke(self):
        n = 20_000
        p = ModelParams.from_mean_los(n, 0.95 * n / 5.3, 5.3)
        path = simulate_path(p, 20_000, seed=0).counts
        assert path.min() >= 0
        assert np.all(path[1:] >= path[:-1] - n)

    @pytest.mark.parametrize("busy", [1, 18, 66, 500])
    @pytest.mark.parametrize("mu", [0.05, 0.5, 0.95])
    def test_departure_table_inverts_binomial(self, busy, mu):
        # With no arrivals the step table is the departure table: the law it
        # gives a uniform is binomial_pmf, reversed, up to that pmf's own
        # normalization error.
        offset, cuts = _step_cuts(busy, mu, _NO_ARRIVALS)
        implied = np.zeros(busy + 1)  # index i is the step i - busy
        implied[offset + busy : offset + busy + len(cuts) + 1] = np.diff([0.0, *cuts, 1.0])
        pmf = binomial_pmf(busy, mu, 0, busy)
        assert offset >= -busy
        assert np.abs(implied[::-1] - pmf).sum() <= abs(1.0 - pmf.sum()) + 1e-14

    def test_departure_table_is_trimmed(self):
        # Binomial(19000, 0.2) has sd 55: the table keeps only the cuts a
        # 53-bit uniform can tell apart, not all 19,000.
        offset, cuts = _step_cuts(19_000, 0.2, _NO_ARRIVALS)
        assert len(cuts) < 1000
        fewest_departures = -(offset + len(cuts))
        assert 3000 < fewest_departures < 3800

    @pytest.mark.parametrize("busy", [0, 1, 18, 66, 500])
    @pytest.mark.parametrize("mu", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("load", [0.5, 2.0])
    def test_step_table_matches_scipy_convolution(self, busy, mu, load):
        # The law a table gives a uniform against an independent Poisson
        # (lam) minus Binomial(busy, mu) convolution, on steps -busy..top.
        # scipy evaluates the Poisson pmf in log space too: at lam = 238 its
        # sum is 1 - 1.3e-13 (mpmath: 1 - 1e-16), so the reference is
        # normalized.
        lam = load * busy * mu + 0.3
        offset, cuts = _step_cuts(busy, mu, _arrival_window(lam))
        top = math.ceil(lam + 20 * math.sqrt(lam) + 50)
        expected = np.convolve(
            stats.binom.pmf(np.arange(busy + 1), busy, mu)[::-1],
            stats.poisson.pmf(np.arange(top + 1), lam),
        )  # index i is the step i - busy
        expected /= expected.sum()
        implied = np.zeros(expected.size)
        implied[offset + busy : offset + busy + cuts.size + 1] = np.diff([0.0, *cuts, 1.0])
        assert offset >= -busy
        assert np.abs(implied - expected).sum() <= 1e-13

    def test_step_table_is_trimmed(self):
        # At busy = 19,000 the step has mean -190 and sd 82: the table keeps
        # only the cuts a 53-bit uniform can tell apart, not one per
        # departure count.
        busy, mu = 19_000, 0.2
        offset, cuts = _step_cuts(busy, mu, _arrival_window(0.95 * busy * mu))
        assert cuts.size < 2500
        assert -190 - 10 * 82 < offset < -190 - 5 * 82

    @pytest.mark.parametrize("lam", [0.3, 11.37, 1e3, 1e9])
    def test_arrival_window_is_narrow(self, lam):
        # The window grows like sqrt(lam), and leaves out only the tails
        # that _trim would cut.
        first, pmf = _arrival_window(lam)
        assert pmf.size < 20 * math.sqrt(lam) + 60
        last = first + pmf.size - 1
        assert stats.poisson.cdf(first - 1, lam) < 2.0**-70
        assert stats.poisson.sf(last, lam) < 2.0**-70

    def test_binomial_window_equals_trimmed_full_pmf(self):
        # Evaluating the binomial only on its window leaves out nothing that
        # _trim would keep: the same offset and pmf, bit for bit.
        rng = np.random.default_rng(3)
        cases = [(n, mu) for n in (0, 1, 18, 66, 500, 20_000) for mu in (0.02, 1 / 5.3, 0.5, 0.95)]
        cases += [(int(rng.integers(1, 30_000)), float(rng.uniform(0.01, 0.99))) for _ in range(400)]
        for trials, prob in cases:
            first, pmf = _binomial_window(trials, prob)
            offset, full = _trim(binomial_pmf(trials, prob, 0, trials))
            assert first == offset
            assert np.array_equal(pmf, full)

    @pytest.mark.parametrize("busy, lam, mu", [(66, 11.37, 1 / 5.3), (19_000, 3610.0, 0.2)])
    def test_cell_lookup_equals_searchsorted(self, busy, lam, mu):
        offset, cuts = _step_cuts(busy, mu, _arrival_window(lam))
        edges = np.arange(_CELLS) / _CELLS
        special = np.concatenate([edges, cuts])
        special = np.concatenate([special, np.nextafter(special, 0.0), np.nextafter(special, 1.0)])
        special = special[(special >= 0.0) & (special < 1.0)]
        uniforms = np.concatenate(
            [special, np.random.default_rng(0).random(1_000_000 - special.size)]
        )
        got = _saturated_steps(uniforms, offset, cuts, _cell_table(offset, cuts))
        assert np.array_equal(got, offset + np.searchsorted(cuts, uniforms, side="right"))

    def test_replications_deterministic_and_shaped(self, params_small):
        a = simulate_replications(params_small, 10, 500, seed=9)
        b = simulate_replications(params_small, 10, 500, seed=9)
        assert np.array_equal(a, b)
        assert a.shape == (500,)
        zero = simulate_replications(params_small, 0, 11, seed=1)
        assert np.all(zero == params_small.n_servers)

    def test_replications_need_a_path(self, params_small):
        with pytest.raises(ValueError, match=r"^n_paths must be >= 1, got 0$"):
            simulate_replications(params_small, 10, 0, 0)

    def test_cut_on_a_cell_edge_is_looked_up_exactly(self):
        # Cell _CELLS / 2 - 1 ends at the cut 0.5, and the next cut lies inside
        # cell _CELLS / 2: both are flagged, and every lookup is exact.
        cuts = np.array([0.25, 0.5, 0.5 + 1.0 / (3 * _CELLS), 0.75])
        steps, flags = _cell_table(-2, cuts)
        assert flags[_CELLS // 2 - 1 : _CELLS // 2 + 1].all()
        uniforms = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0)])
        got = _saturated_steps(uniforms, -2, cuts, (steps, flags))
        assert np.array_equal(got, -2 + np.searchsorted(cuts, uniforms, side="right"))

    def test_replications_follow_transient_law(self):
        # Each final count inverts the exact law's CDF at its own uniform, so
        # the counts are multinomial on that law.
        p = limit_params(100)
        reps = 100_000
        finals = simulate_replications(p, 10, reps, seed=5)
        states, mass = transient_pmf(p, 10)
        freq = np.bincount(finals - states[0], minlength=mass.size) / reps
        expected_tv = float(np.sqrt(mass * (1 - mass) / (2 * math.pi * reps)).sum())
        assert tv(freq, mass) <= 4 * expected_tv

    def test_empirical_pmf_requires_samples(self):
        with pytest.raises(ValueError, match="burn_in"):
            empirical_pmf(np.arange(5), burn_in=5)

    def test_empirical_pmf_refuses_states_beyond_memory(self):
        with pytest.raises(ValueError, match="--steps"):
            empirical_pmf(np.array([0, 10**15]))


def limit_params(n: int) -> ModelParams:
    """The limit harness's system of size n: load 1 - 1/sqrt(n), mean stay 5.3."""
    mu = 1 / 5.3
    return ModelParams(n, n * mu * (1.0 - 1.0 / math.sqrt(n)), mu)


def transient_system(n: int, case: int) -> ModelParams:
    """System ``case`` of size n, run from a full start: 0 at load 0.2 with
    mu = 0.6, where at N = 400 the saturated step falls so fast that the
    rise bound is negative and K = N; 1 the limit harness's; 2 at load 1.2
    and 3 at load 0.5, mean stay 5.3."""
    if case == 1:
        return limit_params(n)
    load, mu = {0: (0.2, 0.6), 2: (1.2, 1 / 5.3), 3: (0.5, 1 / 5.3)}[case]
    return ModelParams(n, load * n * mu, mu)


def transient_oracle(p: ModelParams, horizon: int) -> np.ndarray:
    """Law of the count after ``horizon`` days from a full system, on 0..top.

    Survivors of min(x, N) busy servers are Binomial(min(x, N), 1 - mu), the
    waiting x - N stay, and Poisson(lambda) arrive; top lies past every
    count that a day's arrivals reach with mass above 1e-30.
    """
    n, lam, keep = p.n_servers, p.daily_arrival_rate, 1.0 - p.daily_service_prob
    top = n + horizon * math.ceil(lam + 15 * math.sqrt(lam) + 40)
    idle = stats.binom.pmf(np.arange(n)[None, :], np.arange(n)[:, None], keep)
    saturated = stats.binom.pmf(np.arange(n + 1), n, keep)
    arrivals = stats.poisson.pmf(np.arange(top + 1), lam)
    pi = np.zeros(top + 1)
    pi[n] = 1.0
    for _ in range(horizon):
        survivors = np.zeros(top + 1)
        survivors[:n] = pi[:n] @ idle
        survivors += np.convolve(pi[n:], saturated)[: top + 1]
        pi = np.convolve(survivors, arrivals)[: top + 1]
    return pi


class TestTransientPMF:
    @pytest.mark.parametrize("n", [25, 100, 400])
    @pytest.mark.parametrize("case", [0, 1, 2])
    @pytest.mark.parametrize("horizon", [1, 10])
    def test_matches_scipy_operator(self, n, case, horizon):
        p = transient_system(n, case)
        states, mass = transient_pmf(p, horizon)
        oracle = transient_oracle(p, horizon)
        assert states[-1] < oracle.size
        ours = np.zeros(oracle.size)
        ours[states] = mass
        assert tv(ours, oracle) <= 1e-12

    @pytest.mark.parametrize("n", [100, 400])
    @pytest.mark.parametrize("case", range(4))
    def test_count_stays_in_window_every_day(self, n, case):
        # The window must hold the count on each day up to the horizon, not
        # only on the last.
        p = transient_system(n, case)
        states, _ = transient_pmf(p, 10)
        for horizon in range(11):
            law = transient_oracle(p, horizon)
            assert law[: states[0]].sum() <= 2.0**-55, horizon
            assert law[states[-1] + 1 :].sum() <= 2.0**-55, horizon

    @pytest.mark.parametrize("n", [25, 100, 400, 1600])
    def test_window_ends_hold_no_mass(self, n):
        # From a full system, the window cut below (L > 0 from N = 100 on)
        # and above holds at most 2^-50 at either end.
        states, mass = transient_pmf(limit_params(n), 10)
        if n >= 100:
            assert states[0] > 0
        if states[0] > 0:
            assert mass[0] <= 2.0**-50
        assert mass[-1] <= 2.0**-50
        assert abs(mass.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_window_holds_a_start_above_its_bound(self, horizon):
        # At load 0.2 with mu = 0.6 the saturated step falls by 192 a day
        # with sd 12, so the bound on the rise is negative: no day ends above
        # N - 74, yet the window must still hold the start N.
        p = ModelParams(400, 48.0, 0.6)
        states, mass = transient_pmf(p, horizon)
        assert states[-1] == 400
        oracle = transient_oracle(p, horizon)
        ours = np.zeros(oracle.size)
        ours[states] = mass
        assert tv(ours, oracle) <= 1e-12

    def test_zero_horizon_is_the_start(self, params_small):
        states, mass = transient_pmf(params_small, 0)
        assert states.tolist() == [params_small.n_servers] and mass.tolist() == [1.0]

    @pytest.mark.parametrize("n", [18, 400])
    def test_zero_horizon_window_is_the_start(self, n):
        # No day, no rise: the one-state window that transient_pmf steps
        # zero times.
        assert _transient_window(limit_params(n), 0) == (n, n)

    def test_refuses_negative_horizon(self, params_small):
        with pytest.raises(ValueError, match="horizon"):
            transient_pmf(params_small, -1)

    def test_window_floor_once_no_server_survives(self):
        # At N = 400, mu = 0.5 and load 1 - 1/sqrt(N), N (1 - mu)^s drops
        # below 2^-60 on day 69: from there the window takes the floor of the
        # Poisson law alone, for every later day.  Its L is still the least
        # of the floors of every day's full Binomial + Poisson law.
        n, mu, horizon = 400, 0.5, 100
        p = ModelParams(n, n * mu * (1.0 - 1.0 / math.sqrt(n)), mu)
        assert n * (1 - mu) ** 69 < _TAIL <= n * (1 - mu) ** 68
        floors = []
        for s in range(1, horizon + 1):
            survive = (1 - mu) ** s
            arrived = _arrival_window(p.daily_arrival_rate * (1 - survive) / mu)
            floors.append(_floor_of(_binomial_window(n, survive), arrived))
        assert _transient_window(p, horizon)[0] == min(floors) == 222


class TestSerialization:
    def test_csv_format_and_determinism(self, params_small):
        pi = stationary_pmf(build_kernel(params_small))
        text = pmf_csv(pi.support, pi.mass)
        assert text.splitlines()[0] == "state,probability"
        assert text == pmf_csv(pi.support, pi.mass)
        # 12 significant digits survive a round trip at that precision
        value = text.splitlines()[1].split(",")[1]
        assert float(value) == pytest.approx(pi.mass[0], rel=1e-11)


class TestBatchMeansSE:
    # Integer batch values: a batch of k copies sums to k times its value
    # exactly, so each batch mean is that value to the bit.
    VALUES = np.random.default_rng(5).integers(-50, 50, 32).astype(float)

    def test_constant_batches_give_the_spread_of_their_means(self):
        samples = np.repeat(self.VALUES, 7)
        expected = np.std(self.VALUES, ddof=1) / math.sqrt(32)
        assert batch_means_se(samples) == expected

    @pytest.mark.parametrize("extra", [1, 5, 31])
    def test_leftover_oldest_samples_are_dropped(self, extra):
        samples = np.repeat(self.VALUES, 7)
        older = np.full(extra, 1e6)
        assert batch_means_se(np.concatenate([older, samples])) == batch_means_se(samples)

    def test_short_series_takes_one_batch_per_sample(self):
        for size in range(2, 32):
            samples = self.VALUES[:size]
            assert batch_means_se(samples) == np.std(samples, ddof=1) / math.sqrt(size), size

    @pytest.mark.parametrize("size", [0, 1])
    def test_fewer_than_two_samples_refused(self, size):
        with pytest.raises(ValueError, match="two samples"):
            batch_means_se(np.ones(size))
