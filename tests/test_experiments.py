import dataclasses

import numpy as np
import pytest

from ptlab import engine, experiments
from ptlab.core import AnnealingSchedule
from ptlab.experiments import (
    MODELS,
    bimodal_clt_runs,
    gaussian_equal_rate_mu,
    gcb,
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
                                  init="all-minus", explorer="gibbs",
                                  schedule=schedule, seed=0)
        assert res["t"].size == 6
        assert np.all((res["tv"] >= 0) & (res["tv"] <= 1))
        assert np.all(np.diff(res["bound"]) <= 1e-12)
        assert res["lambda_hat"] > 0

    def test_one_iteration_names_missing_pairs(self):
        # one NRPT round proposes only the even pairs, so r_bar is undefined
        with pytest.raises(ValueError, match="missing pair statistics"):
            ising_tv_experiment(n=3, n_iters=1, n_replicas=10,
                                init="all-minus", explorer="gibbs",
                                schedule=AnnealingSchedule.uniform(3), seed=0)


class TestStreamKeys:
    """Each run of an experiment (tuning rounds, initial states, main run)
    draws from streams of its own, and two seeds share no stream."""

    EXPERIMENTS = {
        "ising-all-minus": lambda seed: ising_tv_experiment(
            n=2, n_iters=4, n_replicas=50, init="all-minus",
            explorer="gibbs", seed=seed),
        "ising-random": lambda seed: ising_tv_experiment(
            n=2, n_iters=4, n_replicas=50, init="random", explorer="gibbs",
            seed=seed),
        "gcb": lambda seed: gcb("ising", 2, 16, 50, 0.2, seed=seed),
        "bimodal-clt": lambda seed: bimodal_clt_runs(
            n_runs=4, n=2, n_iters=1000, seed=seed),
    }

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_runs_share_no_stream(self, monkeypatch, name):
        # small tuning runs; the round count, and so the key count, stays
        for model, spec in MODELS.items():
            monkeypatch.setitem(MODELS, model, dataclasses.replace(
                spec, base_iters=4, tune_replicas=16))
        keys = []

        def recording(make_stream):
            def make(*args, **kwargs):
                rng = make_stream(*args, **kwargs)
                ss = rng.bit_generator.seed_seq
                keys.append((ss.entropy, ss.spawn_key))
                return rng

            return make

        for module in (engine, experiments):
            monkeypatch.setattr(module, "make_stream",
                                recording(module.make_stream))
        by_seed = {}
        for seed in (0, 1):
            keys.clear()
            self.EXPERIMENTS[name](seed)
            assert len(set(keys)) == len(keys), "a stream is reused"
            by_seed[seed] = set(keys)
        assert not by_seed[0] & by_seed[1]
