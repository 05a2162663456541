import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlab.bounds import (
    build_transition,
    coarse_bound,
    hitting_tail,
    nrpt_infinite_bound,
    pdmp_loose_bound,
    rpt_infinite_bound,
    rpt_infinite_tail,
    tv_bound_finite,
)

SCHEMES = ["nrpt", "rpt"]


class TestTransitionMatrix:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n,r", [(1, 0.3), (4, 0.5), (9, 0.9)])
    def test_rows_are_stochastic(self, scheme, n, r):
        trans = build_transition(scheme, n, r)
        rows = np.asarray(trans.matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_dimensions(self):
        assert build_transition("nrpt", 5, 0.3).matrix.shape == (12, 12)
        assert build_transition("rpt", 5, 0.3).matrix.shape == (6, 6)

    def test_absorbing_state(self):
        for scheme in SCHEMES:
            trans = build_transition(scheme, 4, 0.4)
            row = trans.matrix[trans.absorbing].toarray().ravel()
            assert row[trans.absorbing] == 1.0 and row.sum() == 1.0

    def test_bad_args_raise(self):
        with pytest.raises(ValueError):
            build_transition("nrpt", 0, 0.3)
        with pytest.raises(ValueError):
            build_transition("nrpt", 3, 1.0)
        with pytest.raises(ValueError):
            build_transition("bogus", 3, 0.3)


class TestHittingTailOracles:
    def test_single_interval_nonreversible(self):
        # one interval: survive iff the single move fails; then the turn
        # costs a deterministic step, so the tail is r, r, r^2, r^2, ...
        r = 0.3
        np.testing.assert_allclose(
            [hitting_tail("nrpt", 1, r, t) for t in (1, 2, 3, 4)],
            [r, r, r**2, r**2], atol=1e-14)

    def test_single_interval_reversible(self):
        # lazy reflected walk on {0,1}: survival is ((1+r)/2)^t
        r = 0.3
        stay = (1 + r) / 2
        np.testing.assert_allclose(
            [hitting_tail("rpt", 1, r, t) for t in (1, 2, 5)],
            [stay, stay**2, stay**5], atol=1e-14)

    def test_fast_mixing_example_values(self):
        # frozen headline numbers at N=6, r=0.46, t=20
        assert abs((1 - hitting_tail("nrpt", 6, 0.46, 20)) - 0.323) < 1e-3
        assert abs((1 - hitting_tail("rpt", 6, 0.46, 20)) - 0.104) < 1e-3

    def test_r_zero_deterministic_traversal(self):
        # ballistic: the walk arrives exactly at t = N
        n = 7
        assert hitting_tail("nrpt", n, 0.0, n - 1) == 1.0
        assert hitting_tail("nrpt", n, 0.0, n) == 0.0

    def test_array_input_matches_scalars(self):
        ts = np.array([0, 3, 10, 25])
        arr = hitting_tail("nrpt", 4, 0.4, ts)
        sc = [hitting_tail("nrpt", 4, 0.4, int(t)) for t in ts]
        np.testing.assert_allclose(arr, sc, atol=0)

    def test_t_zero_is_one(self):
        assert hitting_tail("nrpt", 3, 0.5, 0) == 1.0
        assert hitting_tail("rpt", 3, 0.5, 0) == 1.0

    @given(
        scheme=st.sampled_from(SCHEMES),
        n=st.integers(1, 8),
        r=st.floats(0.01, 0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_tail_monotone_in_time(self, scheme, n, r):
        ts = np.arange(0, 40)
        tails = hitting_tail(scheme, n, r, ts)
        assert np.all(np.diff(tails) <= 1e-14)
        assert np.all((tails >= 0) & (tails <= 1))

    @given(n=st.integers(1, 6), t=st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_tail_monotone_in_rejection(self, n, t):
        rs = [0.1, 0.3, 0.5, 0.7, 0.9]
        for scheme in SCHEMES:
            tails = [hitting_tail(scheme, n, r, t) for r in rs]
            assert np.all(np.diff(tails) >= -1e-14)


class TestFiniteBounds:
    def test_tv_bound_is_shifted_tail(self):
        ts = np.arange(1, 15)
        np.testing.assert_allclose(
            tv_bound_finite("nrpt", 4, 0.4, ts),
            hitting_tail("nrpt", 4, 0.4, ts - 1), atol=0)

    def test_tv_bound_scalar_t_is_a_float(self):
        # a scalar t once raised TypeError from float() of a 1-element array
        out = tv_bound_finite("nrpt", 5, 0.3, 10)
        assert isinstance(out, float)
        assert out == hitting_tail("nrpt", 5, 0.3, 9)

    def test_tv_bound_requires_positive_t(self):
        with pytest.raises(ValueError):
            tv_bound_finite("nrpt", 4, 0.4, 0)

    @given(
        scheme=st.sampled_from(SCHEMES),
        n=st.integers(1, 6),
        r=st.floats(0.05, 0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_coarse_dominates_exact(self, scheme, n, r):
        ts = np.arange(0, 60)
        exact = hitting_tail(scheme, n, r, ts)
        coarse = coarse_bound(scheme, n, r, ts)
        assert np.all(coarse >= exact - 1e-12)

    def test_coarse_block_structure(self):
        # constant within blocks of length 2N+1 (DEO) / N (SEO)
        assert coarse_bound("nrpt", 3, 0.4, 6) == 1.0
        assert coarse_bound("nrpt", 3, 0.4, 7) == 1.0 - 0.6**6
        assert coarse_bound("rpt", 3, 0.4, 2) == 1.0
        assert coarse_bound("rpt", 3, 0.4, 3) == 1.0 - 0.3**3


class TestInfiniteLimits:
    def test_series_at_zero_is_one(self):
        assert abs(rpt_infinite_tail(0.0) - 1.0) < 1e-12

    def test_series_frozen_value(self):
        # independently computed: (4/pi) sum (-1)^j/(2j+1) e^{-(2j+1)^2 pi^2/8}
        np.testing.assert_allclose(rpt_infinite_tail(1.0), 0.37077742979952,
                                   atol=1e-10)

    def test_series_branch_continuity(self):
        # images form (t < 0.3) and Fourier form (t >= 0.3) must agree
        lo = rpt_infinite_tail(0.3 - 1e-9)
        hi = rpt_infinite_tail(0.3 + 1e-9)
        assert abs(lo - hi) < 1e-8

    def test_series_monotone(self):
        ts = np.linspace(0.0, 10.0, 400)
        tails = rpt_infinite_tail(ts)
        assert np.all(np.diff(tails) <= 1e-12)

    def test_bound_dominates_series(self):
        ts = np.linspace(0.05, 10.0, 500)
        assert np.all(rpt_infinite_bound(ts) >= rpt_infinite_tail(ts))

    def test_nonreversible_bound_shape(self):
        lam = 4.0
        ts = np.linspace(0, 100, 300)
        b = nrpt_infinite_bound(lam, ts)
        assert np.all((b >= 0) & (b <= 1))
        assert b[0] == 1.0  # clamped near t=0
        # exact decay rate once below the clamp
        tail_b = b[ts > 40]
        ratio = tail_b[1:] / tail_b[:-1]
        dt = ts[1] - ts[0]
        np.testing.assert_allclose(ratio, np.exp(-dt / (lam + 2.0)),
                                   rtol=1e-10)

    def test_nonreversible_bound_requires_lam_ge_one(self):
        with pytest.raises(ValueError):
            nrpt_infinite_bound(0.5, 3.0)

    def test_pdmp_loose_values(self):
        lam = 2.0
        assert pdmp_loose_bound(lam, 1.9) == 1.0
        np.testing.assert_allclose(pdmp_loose_bound(lam, 2.0),
                                   1.0 - np.exp(-2 * lam), atol=1e-15)
