import numpy as np
import pytest

from ptlab.experiments import (
    gaussian_equal_rate_mu,
    index_process_hitting_times,
    ising_tv_experiment,
    tune,
)


class TestGaussianEqualRate:
    def test_round_trip(self):
        from scipy.special import ndtr

        n, r = 5, 0.35
        mu = gaussian_equal_rate_mu(n, r)
        np.testing.assert_allclose(1 - 2 * ndtr(-mu / (n * np.sqrt(2))), r,
                                   atol=1e-12)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            gaussian_equal_rate_mu(3, 0.0)


class TestIndexProcessHittingTimes:
    def test_shapes_and_censoring(self):
        times, trace = index_process_hitting_times("nrpt", 3, 0.3, 500, 40,
                                                   seed=0)
        assert times.shape == (500,)
        assert trace.index.shape == (41, 4, 500)
        # unfinished replicas are flagged one beyond the horizon
        assert np.all((times >= 3) | (times == 41))


class TestIsingExperimentSmallScale:
    def test_smoke_run_structure(self):
        schedule, lam_hat, _ = tune("ising", 3, rounds=1, seed=0)
        res = ising_tv_experiment(n=3, n_iters=6, n_replicas=2000,
                                  schedule=schedule, seed=0)
        assert res["t"].size == 6
        assert np.all((res["tv"] >= 0) & (res["tv"] <= 1))
        assert np.all(np.diff(res["bound"]) <= 1e-12)
        assert res["lambda_hat"] > 0
