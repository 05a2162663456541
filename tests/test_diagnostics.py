import numpy as np
import pytest

from ptlab.diagnostics import (
    asymptotic_variance,
    batch_mean_normality,
    empirical_tv_discrete,
    lag1_energy_autocorr,
)
from ptlab.models import DiscreteDist, ising_exact_distribution
from ptlab.rng import make_stream


class TestLag1Autocorr:
    def test_iid_series_near_zero(self):
        v = make_stream(0, 0, 0).standard_normal(10_000)
        assert abs(lag1_energy_autocorr(v, burn_in=0.0)) < 3 / np.sqrt(10_000)

    def test_correlated_series_detected(self):
        rng = make_stream(1, 0, 0)
        v = np.empty(5000)
        v[0] = rng.standard_normal()
        for i in range(1, 5000):
            v[i] = 0.9 * v[i - 1] + rng.standard_normal()
        assert lag1_energy_autocorr(v, burn_in=0.0) > 0.8

    def test_constant_raises(self):
        with pytest.raises(ValueError):
            lag1_energy_autocorr(np.ones(100), burn_in=0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_raises(self, bad):
        v = make_stream(0, 0, 0).standard_normal(100)
        v[50] = bad
        with pytest.raises(ValueError, match="non-finite"):
            lag1_energy_autocorr(v, burn_in=0.2)
        # values inside the burn-in are discarded, so they are allowed
        v[50] = 0.0
        v[5] = bad
        lag1_energy_autocorr(v, burn_in=0.2)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            lag1_energy_autocorr(np.arange(10.0))


class TestEmpiricalTv:
    def test_exact_samples_below_floor(self):
        exact = ising_exact_distribution(0.5)
        codes = make_stream(2, 0, 0).choice(65536, size=100_000, p=exact.probs)
        tv, floor = empirical_tv_discrete(codes, exact)
        assert tv < 3 * floor

    def test_point_mass_detected(self):
        exact = ising_exact_distribution(0.5)
        codes = np.zeros(10_000, dtype=np.int64)
        tv, _ = empirical_tv_discrete(codes, exact)
        p0 = exact.probs[0]
        expected = 0.5 * ((1 - p0) + (1 - p0))
        np.testing.assert_allclose(tv, expected, atol=1e-10)

    def test_tv_in_unit_interval(self):
        exact = DiscreteDist(probs=np.array([0.25, 0.25, 0.5]), log_z=0.0)
        codes = np.array([0, 0, 1, 2, 2, 2])
        tv, floor = empirical_tv_discrete(codes, exact)
        assert 0.0 <= tv <= 1.0 and floor > 0


class TestAsymptoticVariance:
    def test_iid_unit_variance(self):
        f = make_stream(3, 0, 0).standard_normal(100_000)
        assert abs(asymptotic_variance(f) - 1.0) < 0.15

    def test_positive_correlation_inflates(self):
        rng = make_stream(4, 0, 0)
        eps = rng.standard_normal(100_000)
        f = np.empty_like(eps)
        f[0] = eps[0]
        for i in range(1, f.size):
            f[i] = 0.8 * f[i - 1] + eps[i]
        # AR(1): long-run variance = 1/(1-phi)^2 = 25 x marginal scale
        assert asymptotic_variance(f - f.mean()) > 5.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            asymptotic_variance(np.zeros(100))


class TestNormalityCheck:
    def test_normal_passes(self):
        z = make_stream(5, 0, 0).standard_normal(500)
        passed, stat, crit = batch_mean_normality(z)
        assert passed and stat < crit

    def test_exponential_fails(self):
        z = make_stream(6, 0, 0).exponential(1.0, size=500)
        passed, _, _ = batch_mean_normality(z)
        assert not passed

    def test_matches_scipy_anderson(self):
        # statistic and critical values of scipy.stats.anderson(z, "norm")
        # under SciPy 1.17.1 for this sample (levels 15% and 1%)
        z = np.array([-1.3, -0.7, -0.2, 0.0, 0.1, 0.4, 0.45, 0.9, 1.6, 2.8])
        passed, stat, crit = batch_mean_normality(z, level=0.01)
        assert passed
        assert stat == pytest.approx(0.2652209146165223, rel=1e-12)
        assert crit == 0.943
        assert batch_mean_normality(z, level=0.15)[2] == 0.511

    @pytest.mark.parametrize("level", [0.5, 0.02, 0.0])
    def test_untabulated_level_raises(self, level):
        z = make_stream(5, 0, 0).standard_normal(50)
        with pytest.raises(ValueError, match="level"):
            batch_mean_normality(z, level=level)
