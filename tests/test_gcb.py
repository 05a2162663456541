import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlab.core import AnnealingSchedule
from ptlab.engine import SwapStats
from ptlab.explorers import GaussianPathExplorer
from ptlab.gcb import (
    BarrierFn,
    estimate_gcb,
    gcb_direct_mc,
    gcb_gaussian_submanifold_bound,
    gcb_kl_bound,
    gcb_product_bound,
    gcb_tv_bound,
    tune_schedule,
    tuning_rounds,
)
from ptlab.models import gaussian_shift_barrier


class TestBarrierFn:
    def test_interpolates_knots_exactly(self):
        b = BarrierFn(knots=np.array([0.0, 0.2, 1.0]),
                      values=np.array([0.0, 1.0, 3.0]))
        np.testing.assert_allclose(b(np.array([0.0, 0.2, 1.0])),
                                   [0.0, 1.0, 3.0], atol=0)
        np.testing.assert_allclose(b(0.6), 2.0, atol=1e-14)
        assert b.total == 3.0

    def test_inverse_round_trip(self):
        b = BarrierFn(knots=np.array([0.0, 0.3, 0.7, 1.0]),
                      values=np.array([0.0, 0.5, 0.8, 2.0]))
        levels = np.linspace(0, 2, 21)
        np.testing.assert_allclose(b(b.inverse(levels)), levels, atol=1e-12)

    def test_must_be_monotone(self):
        with pytest.raises(ValueError):
            BarrierFn(knots=np.array([0.0, 0.5, 0.4]),
                      values=np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            BarrierFn(knots=np.array([0.1, 0.5]), values=np.array([0.0, 1.0]))


class TestEstimateGcb:
    def test_sums_rejections(self):
        sched = AnnealingSchedule.uniform(3)
        stats = SwapStats(proposed=np.array([10, 10, 10]),
                          accepted=np.array([8, 7, 9]),
                          rejection=np.array([0.2, 0.3, 0.1]))
        lam, barrier = estimate_gcb(stats, sched)
        np.testing.assert_allclose(lam, 0.6, atol=1e-14)
        np.testing.assert_allclose(barrier.values, [0.0, 0.2, 0.5, 0.6],
                                   atol=1e-14)

    def test_missing_pairs_rejected(self):
        sched = AnnealingSchedule.uniform(2)
        stats = SwapStats(proposed=np.array([10, 0]),
                          accepted=np.array([8, 0]),
                          rejection=np.array([0.2, np.nan]))
        with pytest.raises(ValueError):
            estimate_gcb(stats, sched)

    def test_size_mismatch(self):
        sched = AnnealingSchedule.uniform(3)
        stats = SwapStats(proposed=np.array([10]), accepted=np.array([8]),
                          rejection=np.array([0.2]))
        with pytest.raises(ValueError):
            estimate_gcb(stats, sched)


class TestTuneSchedule:
    def test_equalizes_barrier_increments(self):
        b = BarrierFn(knots=np.array([0.0, 0.1, 0.5, 1.0]),
                      values=np.array([0.0, 1.0, 1.5, 2.0]))
        sched = tune_schedule(b, 5)
        incr = np.diff(b(sched.betas))
        np.testing.assert_allclose(incr, b.total / 5, atol=1e-12)

    def test_degenerate_barrier_uniform(self):
        b = BarrierFn(knots=np.array([0.0, 1.0]), values=np.array([0.0, 0.0]))
        sched = tune_schedule(b, 4)
        np.testing.assert_allclose(sched.betas, np.linspace(0, 1, 5),
                                   atol=1e-14)

    @given(
        n=st.integers(1, 12),
        raw=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
    )
    @settings(max_examples=50)
    def test_schedule_always_valid(self, n, raw):
        knots = np.concatenate([[0.0], np.cumsum(raw)])
        knots /= knots[-1]
        values = np.linspace(0.0, 2.0, knots.size) ** 2
        sched = tune_schedule(BarrierFn(knots=knots, values=values), n)
        assert sched.betas[0] == 0.0 and sched.betas[-1] == 1.0
        assert np.all(np.diff(sched.betas) > 0)


class TestTuningRounds:
    def test_converges_on_synthetic_barrier(self):
        # run_fn reports exact per-pair increments of a fixed smooth barrier;
        # adaptation should converge to equal increments and recover the
        # total exactly (piecewise-linear reconstruction is exact at knots)
        true = lambda beta: 2.0 * np.asarray(beta) ** 2

        rounds_run = []

        def run_fn(schedule, n_iters, k):
            rounds_run.append(k)
            rej = np.diff(true(schedule.betas))
            return SwapStats(proposed=np.full(rej.size, n_iters),
                             accepted=np.zeros(rej.size), rejection=rej)

        sched, lam, barrier = tuning_rounds(run_fn, 6, rounds=5,
                                            base_iters=512)
        np.testing.assert_allclose(lam, 2.0, atol=1e-10)
        incr = np.diff(true(sched.betas))
        assert incr.max() - incr.min() < 1e-3
        assert rounds_run == [0, 1, 2, 3, 4]


class TestDirectMc:
    def test_gaussian_closed_form(self):
        mu = 2.0
        explorer = GaussianPathExplorer(mu)

        def v_sampler(beta, rng, size):
            # V(x) = mu^2/2 - mu x under pi_beta = N(beta mu, 1)
            x = explorer.step(np.empty((1, size)), [beta], [rng])[0]
            return mu**2 / 2 - mu * x

        est = gcb_direct_mc(v_sampler, seed=0, n_beta=50, n_pairs=20_000)
        exact = gaussian_shift_barrier(mu)
        assert abs(est - exact) / exact < 0.02


class TestBoundFormulas:
    def test_tv_bound(self):
        assert gcb_tv_bound([0.0, 0.0]) == 0.0
        np.testing.assert_allclose(gcb_tv_bound([0.5]), 2.0, atol=1e-14)
        with pytest.raises(ValueError):
            gcb_tv_bound([1.0])

    def test_kl_bound_zero_divergence(self):
        # KL = 0: g = 1/2, bound = 2 * (1/2)/(1/2) = 2
        np.testing.assert_allclose(gcb_kl_bound(0.0, 0.0), 2.0, atol=1e-14)

    def test_kl_bound_uses_smaller_direction(self):
        assert gcb_kl_bound(0.1, 5.0) == gcb_kl_bound(0.1, 0.1)

    def test_product_bound(self):
        np.testing.assert_allclose(gcb_product_bound([0.5, 1.0, 0.25]), 1.75,
                                   atol=1e-14)

    def test_submanifold_bound_value(self):
        val = gcb_gaussian_submanifold_bound(0.5, 0.0)
        expected = np.sqrt(-0.5 * np.log(0.5) + 0.5 * (1.0 / 0.5 + 1.0))
        np.testing.assert_allclose(val, expected, atol=1e-14)
        with pytest.raises(ValueError):
            gcb_gaussian_submanifold_bound(1.0, 0.0)
