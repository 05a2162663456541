"""Global communication barrier: estimation, schedule tuning, and
analytic bounds.

The barrier Lambda = (1/2) int_0^1 E|V(X_beta) - V(X'_beta)| d(beta)
(X, X' i.i.d. from pi_beta) measures the resistance of the annealing path
to sample traversal.  In practice it is estimated as the sum of per-pair
swap rejection rates; the defining integral is also available as an
independent Monte Carlo quadrature oracle.
"""

from dataclasses import dataclass

import numpy as np

from .core import AnnealingSchedule
from .rng import make_stream


@dataclass(frozen=True)
class BarrierFn:
    """Monotone piecewise-linear cumulative barrier beta -> Lambda(beta)."""

    knots: np.ndarray   # schedule points, starting at 0
    values: np.ndarray  # cumulative barrier at the knots, starting at 0

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)
        if k[0] != 0.0 or v[0] != 0.0:
            raise ValueError("barrier must start at (0, 0)")
        if np.any(np.diff(k) <= 0) or np.any(np.diff(v) < 0):
            raise ValueError("barrier must be monotone")

    @property
    def total(self):
        return float(self.values[-1])

    def __call__(self, beta):
        return np.interp(beta, self.knots, self.values)

    def inverse(self, level):
        """beta with Lambda(beta) = level (piecewise-linear inverse)."""
        return np.interp(level, self.values, self.knots)


def pair_rejections(stats):
    """The per-pair rejection rates of `stats` (SwapStats); raises
    ValueError if a pair had no proposals, so that its rate is NaN."""
    rej = np.asarray(stats.rejection, dtype=float)
    if np.any(np.isnan(rej)):
        raise ValueError("missing pair statistics (a pair had no proposals)")
    return rej


def estimate_gcb(stats, schedule):
    """Barrier estimate from per-pair swap statistics.

    Parameters
    ----------
    stats : SwapStats
        Post burn-in rejection rates for all pairs of `schedule`.
    schedule : AnnealingSchedule

    Returns
    -------
    (lambda_hat, BarrierFn)
    """
    rej = pair_rejections(stats)
    if rej.size != schedule.n_intervals:
        raise ValueError("stats and schedule disagree on the pair count")
    cum = np.concatenate([[0.0], np.cumsum(rej)])
    barrier = BarrierFn(knots=schedule.betas, values=cum)
    return barrier.total, barrier


def tune_schedule(barrier, n):
    """Equi-acceptance schedule: beta_k = Lambda^{-1}(Lambda * k / n).

    A degenerate barrier (total 0) yields the uniform grid.  Endpoints are
    pinned to 0 and 1 exactly.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if barrier.total <= 0.0:
        return AnnealingSchedule.uniform(n)
    levels = barrier.total * np.arange(n + 1) / n
    betas = barrier.inverse(levels)
    betas[0], betas[-1] = 0.0, 1.0
    # guard against flat barrier segments collapsing knots
    for i in range(1, n + 1):
        if betas[i] <= betas[i - 1]:
            betas[i] = betas[i - 1] + 1e-12
    betas[-1] = 1.0
    return AnnealingSchedule(betas)


def tuning_rounds(run_fn, n, rounds, base_iters):
    """Schedule adaptation: run, re-estimate, re-grid, doubling the budget.

    Parameters
    ----------
    run_fn : callable
        (schedule, n_iters, k) -> SwapStats for the PT run of round k
        under that schedule (burn-in already applied).
    n : int
        Number of schedule intervals.
    rounds : int
        Number of adaptation rounds (at least 1).
    base_iters : int
        Iterations of round 0; round k uses base_iters * 2^k.

    Returns
    -------
    (schedule, lambda_hat, BarrierFn) after the final round.
    """
    if rounds < 1:
        raise ValueError(f"need rounds >= 1, got {rounds}")
    schedule = AnnealingSchedule.uniform(n)
    for k in range(rounds):
        stats = run_fn(schedule, base_iters * (2**k), k)
        lam_hat, barrier = estimate_gcb(stats, schedule)
        schedule = tune_schedule(barrier, n)
    return schedule, lam_hat, barrier


def gcb_direct_mc(v_sampler, seed, n_beta, n_pairs):
    """Monte Carlo quadrature of the defining barrier integral.

    Parameters
    ----------
    v_sampler : callable
        (beta, rng, size) -> energy draws V(X) with X ~ pi_beta.
    seed : int
        Node i draws both its samples from the stream keyed (seed, 0, i).
    n_beta : int
        Midpoint-rule nodes on [0, 1].
    n_pairs : int
        Independent (V, V') pairs per node.
    """
    betas = (np.arange(n_beta) + 0.5) / n_beta
    means = np.empty(n_beta)
    for i, b in enumerate(betas):
        rng = make_stream(seed, 0, i)
        v1 = np.asarray(v_sampler(b, rng, n_pairs), dtype=float)
        v2 = np.asarray(v_sampler(b, rng, n_pairs), dtype=float)
        means[i] = np.abs(v1 - v2).mean()
    return 0.5 * means.mean()


# ---------------------------------------------------------------------------
# Analytic bounds on the barrier
# ---------------------------------------------------------------------------


def gcb_tv_bound(tv_values):
    """2 * sum_n TV_n / (1 - TV_n) over adjacent schedule pairs."""
    tv = np.asarray(tv_values, dtype=float)
    if np.any((tv < 0) | (tv >= 1)):
        raise ValueError("each TV must lie in [0, 1)")
    return float(2.0 * np.sum(tv / (1.0 - tv)))


def gcb_kl_bound(kl_10, kl_01):
    """2 * min over directions of g(KL)/(1 - g(KL)), g(x) = 1 - exp(-x)/2."""
    if kl_10 < 0 or kl_01 < 0:
        raise ValueError("KL divergences must be non-negative")

    def term(x):
        g = 1.0 - 0.5 * np.exp(-x)
        return 2.0 * g / (1.0 - g)

    return float(min(term(kl_10), term(kl_01)))


def gcb_product_bound(component_gcbs):
    """Sub-additivity over independent coordinates: the sum."""
    return float(np.sum(np.asarray(component_gcbs, dtype=float)))


def gcb_gaussian_submanifold_bound(rho, m):
    """High-dimensional rate bound for Gaussian pairs with correlation
    parameter rho and squared mean offset m:
    sqrt(-log(1-rho)/2 + ((1+m)/(1-rho) + 1)/2)."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if m < 0:
        raise ValueError("m must be non-negative")
    return float(np.sqrt(-0.5 * np.log(1.0 - rho)
                         + 0.5 * ((1.0 + m) / (1.0 - rho) + 1.0)))
