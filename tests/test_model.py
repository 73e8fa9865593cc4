import math

import numpy as np
import pytest

from midnightq import DiffusionParams, ModelParams, derive_diffusion_params


class TestValidateParams:
    def test_large_system_accepted(self):
        p = ModelParams(500, 90.95, 1 / 5.3)
        assert p.n_servers == 500
        assert p.load == pytest.approx(0.964, abs=5e-4)

    def test_small_system_accepted(self):
        p = ModelParams(18, 3.03, 1 / 5.3)
        assert p.load == pytest.approx(0.892, abs=5e-4)

    def test_mu_above_one_rejected(self):
        with pytest.raises(ValueError, match="daily_service_prob"):
            ModelParams(10, 1.0, 1.5)

    def test_mu_zero_rejected(self):
        with pytest.raises(ValueError, match="daily_service_prob"):
            ModelParams(10, 1.0, 0.0)

    def test_nonpositive_arrival_rate_rejected(self):
        with pytest.raises(ValueError, match="daily_arrival_rate"):
            ModelParams(10, -2.0, 0.5)

    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError, match="n_servers"):
            ModelParams(0, 1.0, 0.5)

    def test_fractional_server_count_rejected(self):
        with pytest.raises(ValueError, match="n_servers"):
            ModelParams(2.5, 1.0, 0.5)

    def test_mean_los_constructor_matches_mu(self):
        a = ModelParams.from_mean_los(18, 3.03, 5.3)
        b = ModelParams(18, 3.03, 1 / 5.3)
        assert a.daily_service_prob == b.daily_service_prob
        assert a.mean_los == pytest.approx(5.3)


class TestDiffusionParams:
    @pytest.mark.parametrize("field", ["variance", "ou_variance"])
    def test_zero_variance_rejected(self, field):
        values = dict(drift=-1.0, variance=1.0, tail_rate=2.0, gaussian_center=-5.0,
                      ou_variance=3.0)
        with pytest.raises(ValueError) as err:
            DiffusionParams(**{**values, field: 0.0})
        assert str(err.value) == f"{field} must be positive, got 0.0"


class TestDeriveDiffusionParams:
    def test_large_system_scalars(self, params_large):
        d = derive_diffusion_params(params_large)
        # Hand arithmetic from the defining formulas.
        assert d.drift == pytest.approx(90.95 - 500 / 5.3, abs=0, rel=1e-15)
        assert d.drift == pytest.approx(-3.3896, abs=5e-5)
        assert d.variance == pytest.approx(90.95 * (2 - 1 / 5.3), rel=1e-15)
        assert d.variance == pytest.approx(164.74, abs=5e-3)
        assert d.tail_rate == pytest.approx(0.04115, abs=5e-6)
        assert d.gaussian_center == pytest.approx(90.95 * 5.3 - 500, rel=1e-12)

    def test_small_system_scalars(self, params_small):
        d = derive_diffusion_params(params_small)
        assert d.drift == pytest.approx(3.03 - 18 / 5.3, rel=1e-15)
        assert d.drift == pytest.approx(-0.36623, abs=5e-6)
        assert d.variance == pytest.approx(3.03 * (2 - 1 / 5.3), rel=1e-15)
        assert d.variance == pytest.approx(5.4883, abs=5e-5)
        assert d.tail_rate == pytest.approx(0.13346, abs=5e-6)

    def test_balanced_load_gives_zero_drift(self):
        mu = 0.25
        p = ModelParams(40, 40 * mu, mu)
        d = derive_diffusion_params(p)
        assert p.load == pytest.approx(1.0, rel=1e-15)
        assert d.drift == 0.0
        assert d.tail_rate == 0.0

    def test_deterministic_and_pure(self, params_small):
        a = derive_diffusion_params(params_small)
        b = derive_diffusion_params(params_small)
        assert a == b  # bit-identical dataclass fields

    def test_tail_rate_relation_exact(self, params_medium):
        d = derive_diffusion_params(params_medium)
        assert d.tail_rate == -2.0 * d.drift / d.variance

    def test_ou_variance_positive(self, params_medium):
        d = derive_diffusion_params(params_medium)
        mu = params_medium.daily_service_prob
        assert d.ou_variance == pytest.approx(d.variance / (2 * mu - mu * mu), rel=1e-15)


@pytest.fixture(scope="module")
def sample():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(200):
        n = int(rng.integers(1, 800))
        mu = float(rng.uniform(0.01, 0.99))
        lam = float(rng.uniform(0.01, 1.6) * n * mu)
        cases.append(ModelParams(n, lam, mu))
    return cases


class TestInvariantsSweep:
    """Property checks over a seeded random sample of the parameter space."""

    def test_variance_identity(self, sample):
        for p in sample:
            d = derive_diffusion_params(p)
            lam, mu, n, rho = p.daily_arrival_rate, p.daily_service_prob, p.n_servers, p.load
            alt = lam + rho * n * mu * (1 - mu)
            assert abs(alt - d.variance) <= 1e-12 * max(1.0, abs(d.variance))

    def test_drift_sign_matches_load(self, sample):
        for p in sample:
            d = derive_diffusion_params(p)
            if p.load != 1.0:
                assert math.copysign(1.0, d.drift) == math.copysign(1.0, p.load - 1.0)

    def test_tail_rate_definition(self, sample):
        for p in sample:
            d = derive_diffusion_params(p)
            assert d.tail_rate == -2.0 * d.drift / d.variance
