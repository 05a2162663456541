import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from ptlab.bounds import hitting_tail, nrpt_infinite_tail, rpt_infinite_tail
from ptlab.cli import _write_csv, main
from ptlab.rng import make_stream
from ptlab.walks import (
    max_leap,
    passage_ratio,
    sim_index_walk,
    sim_pdmp,
    sim_reflected_bm,
    survival_curve,
)


def persistent_walk_reference(n, r, rng, size):
    """The persistent-walk simulator sim_index_walk replaced under NRPT,
    kept as the reference it must reproduce bit for bit.

    The state is (position, direction), from (0, +1).  Each step the walker
    moves one unit in its direction with probability 1-r, otherwise it
    stays and flips direction; the state (0, -1) spends one step turning
    around.  Absorbed on arrival at position n.
    """
    ids = np.arange(size)
    pos = np.zeros(size, dtype=np.int32)
    eps = np.ones(size, dtype=np.int32)
    times = np.zeros(size, dtype=np.int64)
    q = np.float32(1.0 - r)
    t = 0
    while ids.size:
        t += 1
        turning = (pos == 0) & (eps == -1)
        move = rng.random(ids.size, dtype=np.float32) < q
        move &= ~turning
        pos += np.where(move, eps, 0)
        np.copyto(eps, np.where(move, eps, -eps))
        eps[turning] = 1
        hit = pos == n
        if hit.any():
            times[ids[hit]] = t
            keep = ~hit
            ids, pos, eps = ids[keep], pos[keep], eps[keep]
    return times


def seo_walk_reference(n, r, rng, size):
    """The lazy reflected walk simulator sim_index_walk replaced under RPT,
    kept as the reference it must reproduce bit for bit.

    Each step the walker moves +-1 with probability (1-r)/2 each and holds
    with probability r; a downward move at 0 is a hold.
    """
    ids = np.arange(size)
    pos = np.zeros(size, dtype=np.int32)
    times = np.zeros(size, dtype=np.int64)
    half = np.float32((1.0 - r) / 2.0)
    hi = np.float32(1.0 - half)
    t = 0
    while ids.size:
        t += 1
        u = rng.random(ids.size, dtype=np.float32)
        pos += u < half
        pos -= u >= hi
        np.maximum(pos, 0, out=pos)
        hit = pos == n
        if hit.any():
            times[ids[hit]] = t
            keep = ~hit
            ids, pos = ids[keep], pos[keep]
    return times


REFERENCES = {"nrpt": persistent_walk_reference, "rpt": seo_walk_reference}


class ZerosAfter:
    """A stream whose float32 uniforms are all 0 after its first ``rounds``
    calls.  A uniform of 0 moves every walker on: the persistent walk runs
    straight to slot N, turning once at slot 0, and the lazy walk steps
    up, so every walk ends within 2N + 1 rounds of the cut."""

    def __init__(self, rng, rounds):
        self.rng, self.left = rng, rounds

    def random(self, size, dtype):
        self.left -= 1
        if self.left < 0:
            return np.zeros(size, dtype)
        return self.rng.random(size, dtype=dtype)


class TestIndexWalk:
    @pytest.mark.parametrize("scheme", ["nrpt", "rpt"])
    @pytest.mark.parametrize("n", [1, 2, 5, 6, 30])
    @pytest.mark.parametrize("r", [0.0, 0.1, 0.46, 0.9])
    def test_reproduces_reference(self, scheme, n, r):
        # at N = 30 a walk can last 10^4 rounds (7 * 10^4 at r = 0.9) and a
        # round costs the same for 30 walks as for 1000, so the stream is
        # cut after 2000 rounds; each walk's time still reads its state there
        for seed in range(3):
            new = sim_index_walk(scheme, n, r,
                                 ZerosAfter(make_stream(seed, 0, 0), 2000),
                                 1000)
            old = REFERENCES[scheme](n, r,
                                     ZerosAfter(make_stream(seed, 0, 0), 2000),
                                     1000)
            np.testing.assert_array_equal(new, old)

    @pytest.mark.parametrize("scheme, n, r, needle", [
        ("xpt", 3, 0.3, "unknown scheme"), ("nrpt", 0, 0.3, "n >= 1"),
        ("rpt", 3, 1.0, "r must lie"), ("nrpt", 3, np.nan, "r must lie"),
        ("rpt", 3, [0.1, 0.2, 0.3], "one common rejection rate")])
    def test_bad_args(self, scheme, n, r, needle):
        # the exact tail's own check; a vector r, which it takes, is refused
        with pytest.raises(ValueError, match=needle):
            sim_index_walk(scheme, n, r, make_stream(0, 0, 0))

    @pytest.mark.parametrize("scheme", ["nrpt", "rpt"])
    def test_hitting_csv_matches_reference(self, scheme, tmp_path, capsys):
        argv = ["hitting", "--process", scheme, "--N", "6", "--r", "0.46",
                "--replicas", "3000", "--tmin", "1", "--tmax", "80",
                "--points", "20", "--seed", "4", "--out", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        curve = survival_curve(
            lambda rng, size: REFERENCES[scheme](6, 0.46, rng, size),
            np.linspace(1.0, 80.0, 20), 3000, seed=4)
        path = tmp_path / "reference.csv"
        _write_csv(str(path), ["t", "survival", "stderr"],
                   [curve.t_grid, curve.survival, curve.stderr])
        assert ((tmp_path / f"survival_{scheme}.csv").read_bytes()
                == path.read_bytes())


class TestPersistentWalk:
    def test_matches_exact_tail_single_interval(self):
        r = 0.3
        ts = sim_index_walk("nrpt", 1, r, make_stream(0, 0, 0), size=100_000)
        for t, exact in ((1, r), (2, r), (3, r**2)):
            mc = (ts > t).mean()
            se = np.sqrt(exact * (1 - exact) / ts.size)
            assert abs(mc - exact) < 4 * se

    def test_ballistic_when_no_rejection(self):
        ts = sim_index_walk("nrpt", 5, 0.0, make_stream(0, 0, 0), size=100)
        np.testing.assert_array_equal(ts, 5)

    def test_minimum_time_is_n(self):
        ts = sim_index_walk("nrpt", 4, 0.5, make_stream(1, 0, 0), size=10_000)
        assert ts.min() >= 4

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sim_index_walk("nrpt", 0, 0.3, make_stream(0, 0, 0))
        with pytest.raises(ValueError):
            sim_index_walk("nrpt", 3, 1.0, make_stream(0, 0, 0))


class TestSeoWalk:
    def test_matches_geometric_single_interval(self):
        r = 0.4
        stay = (1 + r) / 2
        ts = sim_index_walk("rpt", 1, r, make_stream(0, 0, 0), size=100_000)
        for t in (1, 3, 6):
            exact = stay**t
            mc = (ts > t).mean()
            se = np.sqrt(exact * (1 - exact) / ts.size)
            assert abs(mc - exact) < 4 * se

    def test_matches_matrix_tail(self):
        n, r = 4, 0.5
        ts = sim_index_walk("rpt", n, r, make_stream(2, 0, 0), size=50_000)
        for t in (5, 15, 40):
            exact = hitting_tail("rpt", n, r, t)
            mc = (ts > t).mean()
            se = np.sqrt(exact * (1 - exact) / ts.size)
            assert abs(mc - exact) < 4 * se

    def test_minimum_time_is_n(self):
        ts = sim_index_walk("rpt", 3, 0.2, make_stream(1, 0, 0), size=10_000)
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

    @pytest.mark.parametrize("lam", [0.25, 4.0])
    def test_survival_matches_exact_tail(self, lam):
        # the whole law, on both sides of estimate_C's domain lam >= 1;
        # read where the tail lies in [0.01, 0.99] (12 and 74 points)
        grid = np.linspace(1.0, 20.0, 77)
        exact = nrpt_infinite_tail(lam, grid)
        read = (exact >= 0.01) & (exact <= 0.99)
        curve = survival_curve(lambda rng, size: sim_pdmp(lam, rng, size),
                               grid, 200_000, seed=11)
        se = np.sqrt(exact * (1 - exact) / 200_000)
        assert np.all(np.abs(curve.survival - exact)[read] < 4 * se[read])

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

    @pytest.mark.parametrize("dt", [2e-2, 1e-2, 6e-3])
    def test_one_step_rounds_reproduce_stepwise_simulator(self, dt):
        # for dt > 0.005 every round is one step, and the reference's fringe
        # covers [0, 1]: same draws, same steps
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

    def test_grid_times_inside_leaps(self):
        # at dt = 1e-4 a leap is 100 steps, so these grid times fall inside
        # leaps and read the passage step drawn by passage_ratio.  Reporting
        # passages at the leap's end would move the curve at 0.1543 by 9.3
        # standard errors, at its start by 6.6 (computed from the series).
        # |z| <= 4 at 4 points fails falsely with probability below 2.6e-4.
        z = _bm_z(1e-4, np.array([0.1543, 0.5037, 1.0043, 2.0059]), 200_000,
                  seed=8)
        assert np.all(np.abs(z) <= 4)

    @pytest.mark.parametrize("dt", [1e-100, 1e-80])
    def test_tiny_step_matches_series(self, dt):
        # a float32 sqrt(dt) once underflowed and nothing moved: survival
        # read 1 at every t.  |z| <= 4 at 3 points fails falsely with
        # probability below 2e-4.
        z = _bm_z(dt, np.array([1.0, 2.0, 3.0]), 20_000, seed=9)
        assert np.all(np.abs(z) <= 4)

    @pytest.mark.parametrize("dt", [1e-2, 1e-3, 1e-4, 1e-6])
    def test_leap_rule(self, dt):
        # a decade of step sizes up to dt
        for d in np.geomspace(dt / 10, dt, 5001).tolist():
            k = max_leap(d)
            # the largest leap whose standard deviation is at most 0.1: one
            # more step exceeds it in exact arithmetic on the floats
            assert k >= 1 and np.sqrt(k * d) <= 0.1
            assert (k + 1) * Fraction(d) > Fraction(0.01)
            # for d > 0.005 every round is one step
            assert (k == 1) == (d > 0.005)

    def test_leaps_stop_at_t_max(self):
        # dt = 1e-3 gives leaps of 10 steps, so the last leap has 7 steps
        for t_max in (0.037, 0.537):
            ts = sim_reflected_bm(make_stream(4, 0, 0), 20_000, dt=1e-3,
                                  t_max=t_max)
            assert np.all(ts[np.isfinite(ts)] <= t_max)
        # to 0.537, about 110 passages are expected in the last leap
        assert np.any((ts > 0.530) & (ts <= 0.537))

    def test_leap_below_float32_range(self):
        # h = 1e-46 is 0 in float32, so the bridge divides by 0: that must
        # give p = 0 and raise no warning
        ts = sim_reflected_bm(make_stream(0, 0, 0), 100, dt=1e-50,
                              t_max=1e-46)
        assert np.all(np.isinf(ts))

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


class TestPassageRatio:
    H = 0.01

    @pytest.mark.parametrize("a, g", [(0.05, 0.02), (0.01, 0.3), (0.2, 1e-3),
                                      (0.03, 0.0), (1e-3, 1e-3)])
    def test_law(self, a, g):
        # inverse Gaussian with mean a/g and shape a^2/h, Levy at g = 0.
        # A KS p-value below 1e-4 fails falsely with probability 1e-4 per
        # case, 5e-4 over the five.  g = 0 must raise no warning.
        n = 100_000
        lam = a * a / self.H
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = passage_ratio(make_stream(10, 0, 0), np.full(n, a),
                              np.full(n, g), self.H)
        law = (stats.levy(scale=lam) if g == 0.0
               else stats.invgauss(mu=(a / g) / lam, scale=lam))
        assert np.all(np.isfinite(v)) and np.all(v > 0)
        assert stats.kstest(v, law.cdf).pvalue >= 1e-4


class TestSurvivalCurve:
    def test_reproducible(self):
        grid = np.linspace(1, 10, 10)
        sim = lambda rng, size: sim_index_walk("nrpt", 3, 0.4, rng, size)
        c1 = survival_curve(sim, grid, 5000, seed=7)
        c2 = survival_curve(sim, grid, 5000, seed=7)
        np.testing.assert_array_equal(c1.survival, c2.survival)
        np.testing.assert_array_equal(c1.stderr, c2.stderr)

    def test_monotone_and_bounded(self):
        grid = np.linspace(1, 30, 20)
        sim = lambda rng, size: sim_index_walk("rpt", 3, 0.4, rng, size)
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
