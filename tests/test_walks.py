import numpy as np
import pytest

from ptlab.bounds import hitting_tail, rpt_infinite_tail
from ptlab.rng import make_stream
from ptlab.walks import (
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


class TestReflectedBm:
    def test_matches_series_at_unit_time(self):
        ts = sim_reflected_bm(make_stream(0, 0, 0), size=100_000, dt=1e-3)
        exact = rpt_infinite_tail(1.0)
        mc = (ts > 1.0).mean()
        se = np.sqrt(exact * (1 - exact) / ts.size)
        # 2*sqrt(dt) covers the Euler discretization bias
        assert abs(mc - exact) < 4 * se + 2 * np.sqrt(1e-3)

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
