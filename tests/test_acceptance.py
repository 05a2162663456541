"""Acceptance gate: end-to-end statistical validation of the package.

Each test class is one acceptance criterion, run at its documented desk
scale.  Monte Carlo comparisons use explicit error budgets (KS bands,
binomial 3-sigma, discretization allowances); exact quantities are frozen
to their stated tolerances.
"""

import numpy as np
import pytest
from conftest import ks_band, ks_distance_discrete

from ptlab.bounds import (
    coarse_bound,
    hitting_tail,
    nrpt_infinite_bound,
    nrpt_infinite_tail,
    pdmp_loose_bound,
    rpt_infinite_bound,
    rpt_infinite_tail,
)
from ptlab.diagnostics import batch_mean_normality
from ptlab.experiments import (
    bimodal_clt_runs,
    finite_vs_infinite,
    index_process_hitting_times,
    ising_tv_experiment,
)
from ptlab.engine import ancestral_survival
from ptlab.gcb import (
    gcb_direct_mc,
    gcb_gaussian_submanifold_bound,
    gcb_kl_bound,
    gcb_product_bound,
    gcb_tv_bound,
)
from ptlab.laplace import c_analytic_bound, estimate_C_sup
from ptlab.rng import make_stream
from ptlab.walks import (
    sim_index_walk,
    sim_pdmp,
    sim_reflected_bm,
    survival_curve,
)


class TestCriterion1FiniteChainExactNumbers:
    """hitting_tail reproduces the fast-mixing headline probabilities."""

    def test_nonreversible_six_intervals(self):
        p_hit = 1.0 - hitting_tail("nrpt", 6, 0.46, 20)
        assert abs(p_hit - 0.323) <= 0.001

    def test_reversible_six_intervals(self):
        p_hit = 1.0 - hitting_tail("rpt", 6, 0.46, 20)
        assert abs(p_hit - 0.104) <= 0.001


class TestCriterion2MatrixOracleVsMonteCarlo:
    """KS distance between 1e5 simulated hitting times and the exact
    index-walk tail stays inside the 99% band for every (scheme, N, r)."""

    N_SIM = 100_000

    @pytest.mark.parametrize("n", [1, 6, 30])
    @pytest.mark.parametrize("r", [0.1, 0.46, 0.9])
    def test_nonreversible(self, n, r):
        times = sim_index_walk("nrpt", n, r, make_stream(1000 + n, 0, 0),
                               self.N_SIM)
        cdf = lambda ts: 1.0 - hitting_tail("nrpt", n, r, ts.astype(np.int64))
        assert ks_distance_discrete(times, cdf) <= ks_band(self.N_SIM)

    @pytest.mark.parametrize("n", [1, 6, 30])
    @pytest.mark.parametrize("r", [0.1, 0.46, 0.9])
    def test_reversible(self, n, r):
        times = sim_index_walk("rpt", n, r, make_stream(2000 + n, 0, 0),
                               self.N_SIM)
        cdf = lambda ts: 1.0 - hitting_tail("rpt", n, r, ts.astype(np.int64))
        assert ks_distance_discrete(times, cdf) <= ks_band(self.N_SIM)


class TestCriterion3CoarseBoundDominance:
    def test_coarse_dominates_exact_tail_exhaustive(self):
        ts = np.arange(0, 301)
        for scheme in ("nrpt", "rpt"):
            for n in range(1, 31):
                for r in np.arange(0.1, 0.95, 0.1):
                    exact = hitting_tail(scheme, n, float(r), ts)
                    coarse = coarse_bound(scheme, n, float(r), ts)
                    assert np.all(coarse >= exact - 1e-12), (scheme, n, r)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_loose_bound_dominates_continuum_survival(self, lam):
        grid = np.arange(1.0, 21.0)
        curve = survival_curve(lambda rng, size: sim_pdmp(lam, rng, size),
                               grid, 100_000, seed=int(lam * 10))
        bound = pdmp_loose_bound(lam, grid)
        assert np.all(bound >= curve.survival - 3 * curve.stderr)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_loose_bound_dominates_exact_continuum_tail(self, lam):
        # smallest margins: 0.0102, 0.135 and 4.5e-5 (e^{-10}, the atom)
        grid = np.arange(1.0, 21.0)
        assert np.all(pdmp_loose_bound(lam, grid)
                      >= nrpt_infinite_tail(lam, grid))

    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0, 16.0, 64.0])
    def test_infinite_bound_dominates_exact_continuum_tail(self, lam):
        # the paper's 106 e^{-(t-1)/(lam+2)}: where it is below 1 the exact
        # tail is at most 0.0037 of it
        grid = np.linspace(1.0, 12.0 * (lam + 2.0), 600)
        assert np.all(nrpt_infinite_bound(lam, grid)
                      >= nrpt_infinite_tail(lam, grid))


def _bm_survival(dt, n_rep, seed, grid):
    return survival_curve(
        lambda rng, size: sim_reflected_bm(rng, size, dt=dt, t_max=3.0),
        grid, n_rep, seed=seed)


class TestCriterion4InfiniteChainReversible:
    """At multiples of DT the reflected-BM simulator has no time-step bias
    (see sim_reflected_bm), so the Monte Carlo error is the whole budget."""

    DT = 1e-2
    N_REP = 1_000_000
    GRID = np.array([0.5, 1.0, 2.0])

    @pytest.fixture(scope="class")
    def curve(self):
        return _bm_survival(self.DT, self.N_REP, 42, self.GRID)

    def test_series_at_zero(self):
        assert abs(rpt_infinite_tail(0.0) - 1.0) <= 1e-10

    def test_series_matches_brownian_monte_carlo(self, curve):
        series = rpt_infinite_tail(self.GRID)
        assert np.all(np.abs(curve.survival - series) <= 3 * curve.stderr)

    def test_step_size_leaves_survival_unchanged(self, curve):
        # a seed of its own keeps the two curves independent
        fine = _bm_survival(self.DT / 10, 200_000, 43, self.GRID)
        se = np.hypot(curve.stderr, fine.stderr)
        assert np.all(np.abs(curve.survival - fine.survival) <= 3 * se)

    def test_closed_form_bound_dominates_series(self):
        ts = np.linspace(1.0, 10.0, 181)
        assert np.all(rpt_infinite_bound(ts) >= rpt_infinite_tail(ts))


class TestCriterion5RoundTripConstantTable:
    TABLE = {
        1.0: 0.632, 2.0: 0.864, 4.0: 0.982, 8.0: 1.038, 16.0: 1.091,
        32.0: 1.126, 64.0: 1.146, 128.0: 1.156, 256.0: 1.162, 512.0: 1.165,
    }

    @pytest.mark.parametrize("lam", sorted(TABLE))
    def test_supremum_matches_table(self, lam):
        sup, _, _ = estimate_C_sup(lam)
        assert abs(sup - self.TABLE[lam]) <= 0.02

    @pytest.mark.parametrize("lam", sorted(TABLE))
    def test_analytic_bound_below_universal_constant(self, lam):
        assert c_analytic_bound(lam) <= 106.0


ISING_REPLICAS = 50_000


@pytest.fixture(scope="module")
def all_minus():
    return ising_tv_experiment(n=5, n_iters=25, n_replicas=ISING_REPLICAS,
                               init="all-minus", explorer="gibbs", seed=0)


@pytest.fixture(scope="module")
def random_init(all_minus):
    from ptlab.core import AnnealingSchedule

    schedule = AnnealingSchedule(np.asarray(all_minus["schedule"]))
    return ising_tv_experiment(n=5, n_iters=25, n_replicas=ISING_REPLICAS,
                               init="random", explorer="gibbs",
                               schedule=schedule, seed=0)


class TestCriterion6IsingTvExperiment:
    def test_tv_below_bound_all_times(self, all_minus):
        sel = all_minus["t"] >= 2
        tv = all_minus["tv"][sel]
        bound = all_minus["bound"][sel]
        floor = all_minus["noise_floor"][sel]
        assert np.all(tv <= bound + 3 * floor)

    def test_barrier_estimate(self, all_minus):
        assert abs(all_minus["lambda_hat"] - 2.2) <= 0.3

    def test_random_init_strictly_below_bound(self, random_init):
        assert np.all(random_init["tv"] < random_init["bound"])


@pytest.fixture(scope="module")
def scaling_result():
    return finite_vs_infinite(lam=4.0, n_values=(10, 30, 100))


class TestCriterion7FiniteToInfiniteConvergence:
    def test_nonreversible_close_at_largest_n(self, scaling_result):
        assert scaling_result["nrpt_sup_diff_N100"] <= 0.05

    def test_nonreversible_decreasing_in_n(self, scaling_result):
        diffs = [scaling_result[f"nrpt_sup_diff_N{n}"]
                 for n in (10, 30, 100)]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_nonreversible_rate_is_one_over_n(self, scaling_result):
        # N times the sup difference is 2.367, 2.026 and 1.826, tending to
        # about 1.79 (1.800 at N = 300, 1.791 at N = 1000)
        for n in (10, 30, 100):
            scaled = n * scaling_result[f"nrpt_sup_diff_N{n}"]
            assert 1.75 <= scaled <= 2.45, n

    def test_reversible_close_at_largest_n(self, scaling_result):
        assert scaling_result["rpt_sup_diff_N100"] <= 0.05

    def test_reversible_decreasing_in_n(self, scaling_result):
        diffs = [scaling_result[f"rpt_sup_diff_N{n}"]
                 for n in (10, 30, 100)]
        assert diffs[0] > diffs[1] > diffs[2]


class TestCriterion8GcbPropertySuite:
    """MC barrier estimates against every analytic bound, on Gaussian
    pairs where each comparison quantity is available in closed form."""

    MU = 1.0
    N_BETA = 100
    N_PAIRS = 10_000

    def _v_sampler(self, mu):
        def v_sampler(beta, rng, size):
            x = beta * mu + rng.standard_normal(size)
            return mu**2 / 2 - mu * x

        return v_sampler

    def _pair_lambda(self, seed=0):
        return gcb_direct_mc(self._v_sampler(self.MU), seed=seed,
                             n_beta=self.N_BETA, n_pairs=self.N_PAIRS)

    def _mc_sigma(self):
        # E|V - V'| has per-node sd ~ mu * sd(|N(0,2)|); the quadrature
        # averages n_beta independent nodes
        sd_abs = self.MU * np.sqrt(2.0 * (1.0 - 2.0 / np.pi))
        return 0.5 * sd_abs / np.sqrt(self.N_BETA * self.N_PAIRS)

    def test_tv_bound(self):
        from scipy.special import ndtr

        tv = 2.0 * ndtr(self.MU / 2.0) - 1.0  # exact TV of N(0,1), N(1,1)
        assert self._pair_lambda() <= gcb_tv_bound([tv]) + 3 * self._mc_sigma()

    def test_kl_bound(self):
        kl = self.MU**2 / 2.0  # symmetric for equal variances
        assert self._pair_lambda() <= gcb_kl_bound(kl, kl) + 3 * self._mc_sigma()

    def test_product_subadditivity(self):
        d = 4
        mu = self.MU

        def v_sampler(beta, rng, size):
            x = beta * mu + rng.standard_normal((size, d))
            return (mu**2 / 2 - mu * x).sum(axis=1)

        joint = gcb_direct_mc(v_sampler, seed=1, n_beta=self.N_BETA,
                              n_pairs=self.N_PAIRS)
        pair = self._pair_lambda(seed=2)
        sigma = np.sqrt(d) * self._mc_sigma()
        assert joint <= gcb_product_bound([pair] * d) + 3 * sigma

    def test_diffeomorphism_invariance(self):
        # push both endpoints through x -> 2x + 3: the energy of the mapped
        # pair at the mapped point equals the original energy in law
        mu = self.MU

        def v_mapped(beta, rng, size):
            y = 2.0 * (beta * mu + rng.standard_normal(size)) + 3.0
            x = (y - 3.0) / 2.0  # V(h(x)) under the pushforward = V(x)
            return mu**2 / 2 - mu * x

        lam_orig = self._pair_lambda(seed=3)
        lam_mapped = gcb_direct_mc(v_mapped, seed=4, n_beta=self.N_BETA,
                                   n_pairs=self.N_PAIRS)
        assert abs(lam_orig - lam_mapped) <= 3 * np.sqrt(2) * self._mc_sigma()

    def test_submanifold_bound_sixteen_dimensions(self):
        d, rho = 16, 0.5
        cov = (1 - rho) * np.eye(d) + rho * np.ones((d, d))
        prec_target = np.linalg.inv(cov)
        _, logdet = np.linalg.slogdet(cov)
        quad = prec_target - np.eye(d)

        def v_sampler(beta, rng, size):
            prec_beta = (1 - beta) * np.eye(d) + beta * prec_target
            chol = np.linalg.cholesky(np.linalg.inv(prec_beta))
            x = rng.standard_normal((size, d)) @ chol.T
            return 0.5 * np.einsum("ij,jk,ik->i", x, quad, x) + 0.5 * logdet

        lam = gcb_direct_mc(v_sampler, seed=5, n_beta=self.N_BETA,
                            n_pairs=self.N_PAIRS)
        bound = gcb_gaussian_submanifold_bound(rho, 0.0)
        # generous sigma: V is quadratic with O(d) variance
        sigma = d * self._mc_sigma()
        assert lam / np.sqrt(d) <= bound + 3 * sigma


IDX_N = 6
IDX_R = 0.46
IDX_REPLICAS = 30_000


@pytest.fixture(scope="module")
def nonreversible():
    return index_process_hitting_times("nrpt", IDX_N, IDX_R,
                                       IDX_REPLICAS, 250, seed=0)


@pytest.fixture(scope="module")
def reversible():
    return index_process_hitting_times("rpt", IDX_N, IDX_R,
                                       IDX_REPLICAS, 450, seed=1)


class TestCriterion9IdealizedExplorationExactness:
    """With exact path samplers the engine's index process follows the
    standalone walk laws, and the ancestral survival reproduces the exact
    hitting tail."""

    N = IDX_N
    R = IDX_R
    N_REPLICAS = IDX_REPLICAS

    def _ks_check(self, scheme, times, horizon):
        # censored KS: the empirical CDF is exact below the horizon, and
        # the exact tail mass beyond it is far below the band
        finished = times[times <= horizon]
        assert finished.size > 0.99 * times.size
        cdf = lambda ts: 1.0 - hitting_tail(scheme, self.N, self.R,
                                            ts.astype(np.int64))
        uniq = np.unique(finished)
        samples = np.sort(times)
        ecdf = np.searchsorted(samples, uniq, side="right") / times.size
        d = float(np.max(np.abs(ecdf - cdf(uniq))))
        assert d <= ks_band(self.N_REPLICAS)

    def test_index_law_nonreversible(self, nonreversible):
        times, _ = nonreversible
        self._ks_check("nrpt", times, 250)

    def test_index_law_reversible(self, reversible):
        times, _ = reversible
        self._ks_check("rpt", times, 450)

    @pytest.mark.parametrize("t", [5, 10, 20])
    def test_ancestral_survival_matches_exact_tail(self, nonreversible, t):
        # the backward path of the machine at the target over the window
        # [0, t) survives with exactly the hitting-tail probability at the
        # matching argument (one step sharper than the t-1 bound, which it
        # therefore also satisfies)
        _, trace = nonreversible
        exact = hitting_tail("nrpt", self.N, self.R, t)
        emp = ancestral_survival(trace, t)
        sigma = np.sqrt(exact * (1 - exact) / self.N_REPLICAS)
        assert abs(emp - exact) <= 3 * sigma
        assert emp <= hitting_tail("nrpt", self.N, self.R, t - 1) + 3 * sigma

    @pytest.mark.parametrize("t", [5, 10, 20])
    def test_ancestral_survival_reversible(self, reversible, t):
        _, trace = reversible
        exact = hitting_tail("rpt", self.N, self.R, t)
        emp = ancestral_survival(trace, t)
        sigma = np.sqrt(exact * (1 - exact) / self.N_REPLICAS)
        assert abs(emp - exact) <= 3 * sigma


class TestCriterion10CentralLimitBehaviour:
    def test_batch_mean_statistics_normal(self):
        zs = bimodal_clt_runs(n_runs=500, n=6, n_iters=2000, seed=0)
        assert zs.size == 500
        passed, stat, crit = batch_mean_normality(zs, level=0.01)
        assert passed, (stat, crit)
