"""Exploration kernels.

Every kernel exposes ``step(x, beta, rng) -> x`` where the leading axis of
``x`` indexes replicas, and leaves the path distribution pi_beta invariant.
Kernels are immutable after construction (per-beta tables are cached, but
caching is idempotent), so one kernel object can serve many chains and
threads; the caller supplies the random stream.
"""

import numpy as np

from .core import energy, log_path_density
from .models import (
    N_SITES,
    SITE_NEIGHBOURS,
    ising_bond_sums,
    spins_from_codes,
)


class IIDReferenceExplorer:
    """Fresh i.i.d. draws from the reference, ignoring the input state."""

    def __init__(self, model):
        if model.sample_reference is None:
            raise ValueError("model does not expose a reference sampler")
        self.model = model

    def step(self, x, beta, rng):
        n = np.asarray(x).shape[0]
        return self.model.sample_reference(rng, n)


class IsingGibbsExplorer:
    """Systematic-scan single-site Gibbs sweeps on the 4x4 torus.

    Each call performs `sweeps` full raster-order passes; every site is
    resampled from its conditional under pi_beta given its 4 neighbours.
    """

    def __init__(self, sweeps=3):
        self.sweeps = sweeps

    def step(self, x, beta, rng):
        x = np.asarray(x, dtype=np.int8).copy()
        for _ in range(self.sweeps):
            for site in range(N_SITES):
                nb_sum = x[:, SITE_NEIGHBOURS[site]].sum(axis=1, dtype=np.int32)
                # p(x_site = +1 | rest) = 1 / (1 + exp(-2 beta s))
                p_plus = 1.0 / (1.0 + np.exp(-2.0 * beta * nb_sum))
                x[:, site] = np.where(rng.random(x.shape[0]) < p_plus, 1, -1)
        return x


class _CdfCache:
    """Normalised CDF tables of exp(log_weights(beta)), one per beta,
    built on first use."""

    def __init__(self, log_weights):
        self.log_weights = log_weights
        self._tables = {}

    def __call__(self, beta):
        key = round(float(beta), 12)
        if key not in self._tables:
            logw = self.log_weights(beta)
            w = np.exp(logw - logw.max())
            cdf = np.cumsum(w)
            cdf /= cdf[-1]
            self._tables[key] = cdf
        return self._tables[key]


class IdealIsingExplorer:
    """Exact i.i.d. sampling from pi_beta over all 65,536 Ising states.

    The per-beta CDF table (0.5 MB) is built on first use and cached, so
    the kernel renews the energy i.i.d. — the idealized-exploration model
    holds exactly.
    """

    def __init__(self):
        self._cdf = _CdfCache(
            lambda beta: beta * ising_bond_sums().astype(float))

    def step(self, x, beta, rng):
        n = np.asarray(x).shape[0]
        codes = np.searchsorted(self._cdf(beta), rng.random(n))
        return spins_from_codes(codes)


class IdealGridExplorer:
    """Exact i.i.d. sampling from a one-dimensional pi_beta via a grid CDF.

    The unnormalized density is tabulated on a fine uniform grid; draws use
    inverse-CDF sampling with uniform placement inside a cell.  Adequate
    whenever the grid resolves every mode (cell width well below the
    narrowest length scale of the path).
    """

    def __init__(self, model, lo, hi, n_cells=120_000):
        self.model = model
        self.edges = np.linspace(lo, hi, n_cells + 1)
        self.mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        self._cdf = _CdfCache(
            lambda beta: log_path_density(self.model, beta, self.mids))

    def step(self, x, beta, rng):
        n = np.asarray(x).shape[0]
        cdf = self._cdf(beta)
        cells = np.searchsorted(cdf, rng.random(n))
        left = self.edges[cells]
        width = self.edges[cells + 1] - left
        return left + width * rng.random(n)


class GaussianPathExplorer:
    """Exact sampler for the N(0,1) -> N(mu,1) path: pi_beta = N(beta mu, 1)."""

    def __init__(self, mu):
        self.mu = float(mu)

    def step(self, x, beta, rng):
        n = np.asarray(x).shape[0]
        return beta * self.mu + rng.standard_normal(n)


class RWMExplorer:
    """Random-walk Metropolis with a Gaussian proposal targeting pi_beta."""

    def __init__(self, model, step_size, n_steps=1):
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.model = model
        self.step_size = float(step_size)
        self.n_steps = n_steps

    def step(self, x, beta, rng):
        x = np.asarray(x, dtype=float).copy()
        logp = np.asarray(log_path_density(self.model, beta, x), dtype=float)
        for _ in range(self.n_steps):
            prop = x + self.step_size * rng.standard_normal(x.shape)
            logp_prop = np.asarray(
                log_path_density(self.model, beta, prop), dtype=float
            )
            with np.errstate(invalid="ignore"):
                logr = logp_prop - logp
                logr = np.where(np.isnan(logr), -np.inf, logr)
            acc = np.log(rng.random(x.shape[0])) < logr
            x[acc] = prop[acc]
            logp = np.where(acc, logp_prop, logp)
        return x


def lag1_independence_check(model, explorer, beta, rng, n_pairs=100_000, x0=None):
    """Empirical correlation between V(input) and V(output) over one step.

    Under idealized exploration the output energy is independent of the
    input, so the correlation should vanish within Monte Carlo error.
    """
    if x0 is None:
        x0 = model.sample_reference(rng, n_pairs)
    x1 = explorer.step(x0, beta, rng)
    v0, v1 = energy(model, x0), energy(model, x1)
    return float(np.corrcoef(v0, v1)[0, 1])
