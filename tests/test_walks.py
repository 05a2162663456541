import numpy as np
import pytest

from ptlab.bounds import hitting_tail, rpt_infinite_tail
from ptlab.rng import make_stream
from ptlab.walks import (
    leap_steps,
    sim_pdmp,
    sim_persistent_walk,
    sim_reflected_bm,
    sim_seo_walk,
    survival_curve,
)


class TestPersistentWalk:
    def test_matches_exact_tail_single_interval(self):
        r = 0.3
        ts = sim_persistent_walk(1, r, make_stream(0, 0, 0), size=100_000)
        for t, exact in ((1, r), (2, r), (3, r**2)):
            mc = (ts > t).mean()
            se = np.sqrt(exact * (1 - exact) / ts.size)
            assert abs(mc - exact) < 4 * se

    def test_ballistic_when_no_rejection(self):
        ts = sim_persistent_walk(5, 0.0, make_stream(0, 0, 0), size=100)
        np.testing.assert_array_equal(ts, 5)

    def test_minimum_time_is_n(self):
        ts = sim_persistent_walk(4, 0.5, make_stream(1, 0, 0), size=10_000)
        assert ts.min() >= 4

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sim_persistent_walk(0, 0.3, make_stream(0, 0, 0))
        with pytest.raises(ValueError):
            sim_persistent_walk(3, 1.0, make_stream(0, 0, 0))


class TestSeoWalk:
    def test_matches_geometric_single_interval(self):
        r = 0.4
        stay = (1 + r) / 2
        ts = sim_seo_walk(1, r, make_stream(0, 0, 0), size=100_000)
        for t in (1, 3, 6):
            exact = stay**t
            mc = (ts > t).mean()
            se = np.sqrt(exact * (1 - exact) / ts.size)
            assert abs(mc - exact) < 4 * se

    def test_matches_matrix_tail(self):
        n, r = 4, 0.5
        ts = sim_seo_walk(n, r, make_stream(2, 0, 0), size=50_000)
        for t in (5, 15, 40):
            exact = hitting_tail("rpt", n, r, t)
            mc = (ts > t).mean()
            se = np.sqrt(exact * (1 - exact) / ts.size)
            assert abs(mc - exact) < 4 * se

    def test_minimum_time_is_n(self):
        ts = sim_seo_walk(3, 0.2, make_stream(1, 0, 0), size=10_000)
        assert ts.min() >= 3


class TestPdmp:
    def test_zero_rate_deterministic_unit_time(self):
        ts = sim_pdmp(0.0, make_stream(0, 0, 0), size=1000)
        np.testing.assert_array_equal(ts, 1.0)

    def test_minimum_traversal_time_is_one(self):
        ts = sim_pdmp(3.0, make_stream(0, 0, 0), size=50_000)
        assert ts.min() >= 1.0

    def test_first_leg_survival(self):
        # traversal beats t=1 iff no flip in the first unit: e^{-lam}
        lam = 1.5
        ts = sim_pdmp(lam, make_stream(3, 0, 0), size=200_000)
        exact = np.exp(-lam)
        mc = (ts <= 1.0).mean()
        se = np.sqrt(exact * (1 - exact) / ts.size)
        assert abs(mc - exact) < 4 * se

    def test_negative_rate_raises(self):
        with pytest.raises(ValueError):
            sim_pdmp(-1.0, make_stream(0, 0, 0))

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_rate_raises(self, lam):
        # NaN and inf rates once looped forever
        with pytest.raises(ValueError):
            sim_pdmp(lam, make_stream(0, 0, 0))


def stepwise_reflected_bm(rng, size, dt, t_max):
    """The step-by-step simulator sim_reflected_bm replaced, kept as the
    reference its leaps must reproduce when every round is one step.
    Reports a passage in step k as k dt."""
    sdt = np.float32(np.sqrt(dt))
    x = np.zeros(size, dtype=np.float32)
    times = np.full(size, np.inf)
    alive_idx = np.arange(size)
    n_steps = int(round(t_max / dt))
    for step in range(1, n_steps + 1):
        m = alive_idx.size
        if m == 0:
            break
        z = rng.standard_normal(m, dtype=np.float32)
        x_new = np.abs(x + sdt * z)
        hit = x_new >= 1.0
        fringe = 20.0 * sdt
        sub = np.flatnonzero(~hit & (x_new > 1.0 - fringe) & (x > 1.0 - fringe))
        if sub.size:
            p = np.exp(-2.0 * (1.0 - x[sub]) * (1.0 - x_new[sub]) / np.float32(dt))
            hit[sub] = rng.random(sub.size) < p
        if hit.any():
            times[alive_idx[hit]] = step * dt
            keep = ~hit
            alive_idx = alive_idx[keep]
            x = x_new[keep]
        else:
            x = x_new
    return times


def _bm_z(dt, grid, n_rep, seed, t_max=3.0):
    curve = survival_curve(
        lambda rng, size: sim_reflected_bm(rng, size, dt=dt, t_max=t_max),
        grid, n_rep, seed=seed)
    return (curve.survival - rpt_infinite_tail(grid)) / curve.stderr


class TestReflectedBm:
    def test_matches_series_at_unit_time(self):
        ts = sim_reflected_bm(make_stream(0, 0, 0), size=100_000, dt=1e-3)
        exact = rpt_infinite_tail(1.0)
        mc = (ts > 1.0).mean()
        se = np.sqrt(exact * (1 - exact) / ts.size)
        assert abs(mc - exact) < 4 * se

    @pytest.mark.parametrize("dt", [1e-2, 4e-3])
    def test_one_step_rounds_reproduce_stepwise_simulator(self, dt):
        # for dt >= 1/400 the fringe covers [0, 1]: same draws, same steps
        new = sim_reflected_bm(make_stream(3, 0, 0), 20_000, dt=dt, t_max=2.0)
        old = stepwise_reflected_bm(make_stream(3, 0, 0), 20_000, dt, 2.0)
        np.testing.assert_array_equal(np.isinf(new), np.isinf(old))
        done = np.isfinite(old)
        np.testing.assert_array_equal(np.rint(new[done] / dt + 0.5),
                                      np.rint(old[done] / dt))

    def test_matches_series_where_leaps_are_taken(self):
        z = _bm_z(1e-4, np.array([0.5, 1.0, 2.0]), 100_000, seed=5,
                  t_max=2.0)
        assert np.all(np.abs(z) <= 3)

    def test_grid_times_off_step_multiples(self):
        # linspace(0.1, 3, 30)[6] is just below 0.7 while 70 * 0.01 is just
        # above it; passages reported at k dt were counted as survivors
        z = _bm_z(1e-2, np.linspace(0.1, 3.0, 30), 200_000, seed=6)
        assert np.all(np.abs(z) <= 4)

    @pytest.mark.parametrize("dt", [1e-2, 1e-3, 1e-4, 1e-6])
    def test_leap_rule(self, dt):
        sdt = np.float32(np.sqrt(dt))
        x = np.concatenate([
            make_stream(0, 0, 0).random(100_000, dtype=np.float32),
            np.linspace(0.0, 1.0, 100_001, dtype=np.float32)])
        k = leap_steps(x, sdt, np.full(x.size, 1e12))
        d = 1.0 - x.astype(float)
        far = d >= 20 * np.sqrt(dt)
        assert np.all(k[~far] == 1)
        assert np.all(100 * k[far] * dt <= d[far] ** 2)
        assert np.all(k == np.floor(k)) and np.all(k >= 1)
        # for dt >= 1/400 the fringe covers [0, 1] and nothing leaps
        assert np.any(k > 1) == (dt < 1 / 400)

    def test_leaps_stop_at_t_max(self):
        # from 0 the uncapped leap is floor((1 / 0.03)^2) = 1111 steps
        k = leap_steps(np.zeros(3, dtype=np.float32), np.float32(3e-3),
                       np.array([1.0, 7.0, 1e6]))
        np.testing.assert_array_equal(k, [1, 7, 1111])

    def test_unfinished_reported_infinite(self):
        ts = sim_reflected_bm(make_stream(0, 0, 0), size=2000, dt=1e-3, t_max=0.05)
        assert np.isinf(ts).any()
        finite = ts[np.isfinite(ts)]
        assert np.all(finite <= 0.05 + 1e-12)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            sim_reflected_bm(make_stream(0, 0, 0), size=10, dt=0.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 20.0])
    def test_dt_without_a_step_raises(self, dt):
        # an infinite dt, or one beyond t_max = 10, rounds the step count
        # to 0, which once reported survival 1 at every t
        with pytest.raises(ValueError):
            sim_reflected_bm(make_stream(0, 0, 0), size=10, dt=dt)


class TestSurvivalCurve:
    def test_reproducible(self):
        grid = np.linspace(1, 10, 10)
        sim = lambda rng, size: sim_persistent_walk(3, 0.4, rng, size)
        c1 = survival_curve(sim, grid, 5000, seed=7)
        c2 = survival_curve(sim, grid, 5000, seed=7)
        np.testing.assert_array_equal(c1.survival, c2.survival)
        np.testing.assert_array_equal(c1.stderr, c2.stderr)

    def test_monotone_and_bounded(self):
        grid = np.linspace(1, 30, 20)
        sim = lambda rng, size: sim_seo_walk(3, 0.4, rng, size)
        c = survival_curve(sim, grid, 20_000, seed=0)
        assert np.all(np.diff(c.survival) <= 0)
        assert np.all((c.survival >= 0) & (c.survival <= 1))
        # binomial standard error formula
        np.testing.assert_allclose(
            c.stderr, np.sqrt(c.survival * (1 - c.survival) / c.n_rep),
            atol=1e-15)

    def test_requires_enough_replicates(self):
        with pytest.raises(ValueError):
            survival_curve(lambda rng, size: sim_pdmp(1.0, rng, size),
                           np.array([1.0]), 50, seed=0)
