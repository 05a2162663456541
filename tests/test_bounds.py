import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlab.bounds import (
    coarse_bound,
    hitting_tail,
    nrpt_infinite_bound,
    nrpt_infinite_tail,
    pdmp_loose_bound,
    rpt_infinite_bound,
    rpt_infinite_tail,
    tv_bound_finite,
)
from ptlab.engine import _proposed, update_index_process
from ptlab.rng import make_stream

SCHEMES = ["nrpt", "rpt"]


def build_transition(scheme, n, r):
    """Reference: the hand-coded absorbing matrix of the index walk at one
    common rejection r, as (matrix, start, absorbing).

    DEO gives a (2N+2) x (2N+2) persistent-walk matrix whose states track
    (position, direction) with an absorbing target state; SEO gives an
    (N+1) x (N+1) lazy walk with a sticky lower boundary.  Both are the
    mirror image of the engine's slots: the machine starts at the top and
    is absorbed at state 0.
    """
    rows, cols, vals = [], [], []
    if scheme == "nrpt":
        d = 2 * n + 2
        rows += [0]
        cols += [0]
        vals += [1.0]
        for k in range(1, n + 1):
            # two direction states per interior position
            rows += [2 * k - 1, 2 * k - 1]
            cols += [2 * k - 2, 2 * k + 1]
            vals += [r, 1.0 - r]
            rows += [2 * k, 2 * k]
            cols += [2 * k + 1, 2 * k - 2]
            vals += [r, 1.0 - r]
        rows += [2 * n + 1]
        cols += [2 * n]
        vals += [1.0]
        start = 2 * n
    else:
        d = n + 1
        rows += [0]
        cols += [0]
        vals += [1.0]
        for i in range(1, n):
            rows += [i, i, i]
            cols += [i - 1, i, i + 1]
            vals += [(1.0 - r) / 2.0, r, (1.0 - r) / 2.0]
        rows += [n, n]
        cols += [n - 1, n]
        vals += [(1.0 - r) / 2.0, (1.0 + r) / 2.0]
        start = n
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(d, d))
    return mat, start, 0


def reference_tail(scheme, n, r, t_max):
    """Pr(tau_N > t) for t = 0..t_max from the reference matrix."""
    mat, start, absorbing = build_transition(scheme, n, r)
    at = mat.T.tocsr()
    v = np.zeros(mat.shape[0])
    v[start] = 1.0
    tails = np.empty(t_max + 1)
    tails[0] = 1.0 - v[absorbing]
    for step in range(1, t_max + 1):
        v = at @ v
        tails[step] = 1.0 - v[absorbing]
    return tails


class TestAgainstReferenceMatrix:
    """The tail from the engine's swap rule equals the hand-coded
    absorbing-matrix walk at every common rate."""

    T_MAX = 500

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_agrees_with_reference(self, scheme):
        ts = np.arange(self.T_MAX + 1)
        for n in range(1, 31):
            for r in (0.0, 0.05, 0.3, 0.46, 0.7, 0.9, 0.99):
                ref = np.clip(reference_tail(scheme, n, r, self.T_MAX), 0, 1)
                new = hitting_tail(scheme, n, r, ts)
                np.testing.assert_allclose(new, ref, rtol=0, atol=1e-12,
                                           err_msg=f"{scheme} n={n} r={r}")
                # criterion 9 compares against these with a zero sigma;
                # summing the live mass instead of the absorbed mass gave
                # 0.9999999999999999 at (nrpt, 6, 0.46, t = 4)
                ones = ref == 1.0
                assert np.all(new[ones] == 1.0), (scheme, n, r)


class TestPerPairRates:
    """Uneven rates: pair n's rate sits on the engine's pair n."""

    R = np.array([0.55, 0.35, 0.43, 0.41, 0.41, 0.40])
    N_REP = 200_000
    T = 60
    # |z| > 4 at one t has probability 6.3e-5 under the null; over the 60
    # rounds of one scheme the false-failure probability is below 3.8e-3
    Z_MAX = 4.0

    def _first_passage_survival(self, scheme, rng):
        n = self.R.size
        index = np.repeat(np.arange(n + 1, dtype=np.int16)[:, None],
                          self.N_REP, axis=1)
        alive = np.ones(self.N_REP, dtype=bool)
        surv = np.empty(self.T + 1)
        surv[0] = 1.0
        pairs = np.arange(n)[:, None]
        for t in range(self.T):
            if scheme == "nrpt":
                parity = t % 2
            else:
                parity = rng.integers(0, 2, size=self.N_REP)
            u = rng.random((n, self.N_REP))
            accepts = _proposed(pairs, parity) & (u < 1.0 - self.R[:, None])
            index = update_index_process(index, accepts)
            alive &= index[0] != n
            surv[t + 1] = alive.mean()
        return surv

    @pytest.mark.parametrize("scheme,seed", [("nrpt", 11), ("rpt", 12)])
    def test_matches_engine_index_process(self, scheme, seed):
        emp = self._first_passage_survival(scheme, make_stream(seed, 0, 0))
        ts = np.arange(self.T + 1)
        exact = hitting_tail(scheme, self.R.size, self.R, ts)
        sure = (exact == 0.0) | (exact == 1.0)
        np.testing.assert_array_equal(emp[sure], exact[sure])
        sd = np.sqrt(exact * (1.0 - exact) / self.N_REP)
        z = (emp[~sure] - exact[~sure]) / sd[~sure]
        assert np.max(np.abs(z)) < self.Z_MAX
        # the mirrored rates are a different law, outside the band
        mirrored = hitting_tail(scheme, self.R.size, self.R[::-1], ts)
        z_mirrored = (emp[~sure] - mirrored[~sure]) / sd[~sure]
        assert np.max(np.abs(z_mirrored)) > self.Z_MAX

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_scalar_rate_broadcasts(self, scheme):
        ts = np.arange(80)
        np.testing.assert_array_equal(hitting_tail(scheme, 5, 0.37, ts),
                                      hitting_tail(scheme, 5,
                                                   np.full(5, 0.37), ts))


class TestBadArguments:
    @pytest.mark.parametrize("scheme,n,r", [
        ("nrpt", 0, 0.3),
        ("nrpt", 3, 1.0),
        ("nrpt", 3, float("nan")),
        ("nrpt", 3, -0.1),
        ("nrpt", 3, [0.3, 0.3]),
        ("nrpt", 3, [0.3, float("nan"), 0.3]),
        ("bogus", 3, 0.3),
    ])
    def test_hitting_tail_raises(self, scheme, n, r):
        with pytest.raises(ValueError):
            hitting_tail(scheme, n, r, 5)

    @pytest.mark.parametrize("scheme,n,r", [
        ("rpt", 0, 0.3),
        ("nrpt", 3, 1.5),
        ("nrpt", 3, 1.0),
        ("rpt", 3, float("nan")),
        ("nrpt", 3, -0.1),
        ("nrpt", 3, [0.3, 0.3, 0.3]),
        ("bogus", 3, 0.3),
    ])
    def test_coarse_bound_raises(self, scheme, n, r):
        with pytest.raises(ValueError):
            coarse_bound(scheme, n, r, 7)


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

    def test_continuum_tail_before_and_at_one(self):
        # tau >= 1, with an atom e^{-lam} at 1: no flip before the far end
        for lam in (0.25, 4.0, 64.0):
            head = nrpt_infinite_tail(lam, [0.0, 0.5, 1.0 - 1e-12])
            assert head.tolist() == [1.0, 1.0, 1.0]
            np.testing.assert_allclose(nrpt_infinite_tail(lam, 1.0),
                                       1.0 - np.exp(-lam), rtol=0,
                                       atol=1e-15)

    def test_continuum_tail_is_a_step_without_flips(self):
        ts = np.array([0.0, 0.99, 1.0, 1.01, 2.0, 20.0])
        np.testing.assert_allclose(nrpt_infinite_tail(0.0, ts),
                                   [1.0, 1.0, 0.0, 0.0, 0.0, 0.0], rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.25, 1.0, 4.0, 64.0, 512.0])
    def test_continuum_tail_is_a_probability(self, lam):
        tails = nrpt_infinite_tail(lam, np.linspace(0.0, 200.0, 401))
        assert np.all((tails >= 0.0) & (tails <= 1.0))

    def test_continuum_tail_scalar_in_float_out(self):
        val = nrpt_infinite_tail(4.0, 3.0)
        assert type(val) is float
        assert nrpt_infinite_tail(4.0, np.array([3.0]))[0] == val
        assert nrpt_infinite_tail(4.0, [2.0, 3.0])[1] == val

    @pytest.mark.parametrize("lam, t", [
        (-0.5, 2.0), (np.nan, 2.0), (np.inf, 2.0),
        (4.0, -1.0), (4.0, [2.0, -0.1]), (4.0, np.nan), (4.0, np.inf)])
    def test_continuum_tail_rejects_bad_input(self, lam, t):
        with pytest.raises(ValueError):
            nrpt_infinite_tail(lam, t)

    def test_pdmp_loose_values(self):
        lam = 2.0
        assert pdmp_loose_bound(lam, 1.9) == 1.0
        np.testing.assert_allclose(pdmp_loose_bound(lam, 2.0),
                                   1.0 - np.exp(-2 * lam), atol=1e-15)
