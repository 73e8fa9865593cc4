import math

import numpy as np
import pytest

from mpmath import mp

from midnightq import (
    ChainKernel,
    ConvergenceError,
    ModelParams,
    UnstableRegimeError,
    build_kernel,
    default_truncation,
    simulate_path,
    simulate_replications,
    stationary_pmf,
)
from midnightq.chain import _departure_cuts, binomial_pmf, empirical_pmf, poisson_pmf


def tv(a: np.ndarray, b: np.ndarray) -> float:
    width = max(a.size, b.size)
    pa = np.zeros(width)
    pa[: a.size] = a
    pb = np.zeros(width)
    pb[: b.size] = b
    return 0.5 * float(np.abs(pa - pb).sum())


class TestBuildKernel:
    def test_single_server_hand_convolution(self):
        # From state 1: next state 0 needs one departure and zero arrivals.
        kernel = build_kernel(ModelParams(1, 0.4, 0.5), truncation=30)
        assert kernel.rows[1, 0] == pytest.approx(0.5 * math.exp(-0.4), rel=1e-14)

    def test_rows_are_stochastic(self, params_small):
        kernel = build_kernel(params_small)
        sums = kernel.rows.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-12
        assert kernel.rows.min() >= 0.0

    def test_empty_state_row_is_truncated_poisson(self):
        p = ModelParams(4, 1.3, 0.3)
        kernel = build_kernel(p, truncation=40)
        expected = poisson_pmf(1.3, 40)
        expected[-1] += 1.0 - expected.sum()
        assert np.abs(kernel.rows[0] - expected).max() <= 1e-15

    def test_truncation_below_server_count_rejected(self):
        with pytest.raises(ValueError, match="truncation below server count"):
            build_kernel(ModelParams(10, 1.0, 0.5), truncation=9)

    def test_default_truncation_clears_server_count(self, params_large):
        assert default_truncation(params_large) > params_large.n_servers

    def test_kernel_too_large_for_memory_refused(self):
        # Load 0.999 at N = 500: K = 41,214, a 25.3 GiB kernel with its LU copy.
        p = ModelParams.from_mean_los(500, 0.999 * 500 / 5.3, 5.3)
        with pytest.raises(ValueError, match="--truncation"):
            build_kernel(p)

    def test_row_sums_random_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            mu = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(0.2, 1.3) * n * mu)
            kernel = build_kernel(ModelParams(n, lam, mu), truncation=n + 60)
            assert np.abs(kernel.rows.sum(axis=1) - 1.0).max() <= 1e-12


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
        with pytest.raises(ConvergenceError) as err:
            stationary_pmf(kernel, tol=1e-17)
        assert err.value.residual > 1e-17

    def test_invalid_tolerance_rejected(self, params_small):
        kernel = build_kernel(params_small)
        with pytest.raises(ValueError, match="tol"):
            stationary_pmf(kernel, tol=0.0)

    def test_matches_high_precision_solve(self, params_small):
        # Referee: the same truncated kernel, its float64 entries taken
        # exactly, solved by LU in 40-digit arithmetic.
        kernel = build_kernel(params_small, truncation=80)
        k = kernel.rows.shape[0]
        with mp.workdps(40):
            a = mp.matrix(k, k)
            for i in range(k):
                for j in range(k):
                    a[i, j] = mp.mpf(float(kernel.rows[j, i])) - (1 if i == j else 0)
            for j in range(k):
                a[0, j] = mp.mpf(1)
            b = mp.matrix(k, 1)
            b[0] = mp.mpf(1)
            x = mp.lu_solve(a, b)
            referee = np.array([float(x[i]) for i in range(k)])
        assert tv(stationary_pmf(kernel).mass, referee) <= 1e-14

    def test_overloaded_chain_refused(self):
        kernel = build_kernel(ModelParams(5, 1.5, 0.25))
        with pytest.raises(UnstableRegimeError, match="load"):
            stationary_pmf(kernel)

    def test_nan_residual_refused(self, params_small):
        rows = build_kernel(params_small, truncation=40).rows.copy()
        rows[3, 5] = np.nan
        kernel = ChainKernel(truncation_level=40, rows=rows, params=params_small)
        with pytest.raises(ConvergenceError):
            stationary_pmf(kernel)


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
        rows = build_kernel(params_small).rows
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
        # The law the table gives a uniform equals binomial_pmf up to that
        # pmf's own normalization error, which lands on the top kept count.
        offset, cuts = _departure_cuts(busy, mu)
        implied = np.zeros(busy + 1)
        implied[offset : offset + len(cuts) + 1] = np.diff([0.0, *cuts, 1.0])
        pmf = binomial_pmf(busy, mu)
        assert np.abs(implied - pmf).sum() <= abs(1.0 - pmf.sum()) + 1e-14

    def test_departure_table_is_trimmed(self):
        # Binomial(19000, 0.2) has sd 55: the table keeps only the cuts a
        # 53-bit uniform can tell apart, not all 19,000.
        offset, cuts = _departure_cuts(19_000, 0.2)
        assert len(cuts) < 1000
        assert 3000 < offset < 3800

    def test_replications_deterministic_and_shaped(self, params_small):
        a = simulate_replications(params_small, 10, 500, seed=9)
        b = simulate_replications(params_small, 10, 500, seed=9)
        assert np.array_equal(a, b)
        assert a.shape == (500,)
        zero = simulate_replications(params_small, 0, 11, seed=1)
        assert np.all(zero == params_small.n_servers)

    def test_empirical_pmf_requires_samples(self):
        with pytest.raises(ValueError, match="burn_in"):
            empirical_pmf(np.arange(5), burn_in=5)


class TestSerialization:
    def test_csv_format_and_determinism(self, tmp_path, params_small):
        pi = stationary_pmf(build_kernel(params_small))
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        pi.to_csv(str(f1))
        pi.to_csv(str(f2))
        text = f1.read_text()
        assert text.splitlines()[0] == "state,probability"
        assert text == f2.read_text()
        # 12 significant digits survive a round trip at that precision
        value = text.splitlines()[1].split(",")[1]
        assert float(value) == pytest.approx(pi.mass[0], rel=1e-11)
