"""Explorers: the within-chain moves of parallel tempering.

Every explorer exposes ``step(x, betas, rngs) -> x`` over a block of chains:
``x`` has shape (n, R, ...) with chain along the first axis and replicas
along the second, ``betas`` has shape (n,), and ``rngs`` holds one stream
per chain, in chain order.  Chain k draws only from ``rngs[k]``, so each
chain's draws do not depend on which other chains share the call.  Every
explorer but the i.i.d. reference sampler leaves the path distribution
pi_beta invariant at each chain's beta.  Explorers are immutable after
construction (per-beta tables are cached, but caching is idempotent), so
one explorer object can serve many runs.
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

    def step(self, x, betas, rngs):
        return np.stack([self.model.sample_reference(g, x.shape[1])
                         for g in rngs])


class IsingGibbsExplorer:
    """Systematic-scan single-site Gibbs sweeps on the 4x4 torus.

    Each call performs `sweeps` full raster-order passes; every site is
    resampled from its conditional under pi_beta given its 4 neighbours,
    p(+1) = 1 / (1 + exp(-2 beta s)) with s the neighbour sum.  s is one
    of -4, -2, 0, 2, 4, so each call tabulates p(+1) once per chain, a
    5-entry row, and a site update is one lookup in that table.  For the
    call the spins are held site-major, (16, n, R), as 0/1.  The draws
    are those of the raster scan: per site, one uniform per replica from
    each chain's stream, in chain order; the site becomes +1 where its
    uniform falls below p(+1).  ``x`` must hold +-1 spins.
    """

    def __init__(self, sweeps=3):
        self.sweeps = sweeps

    def step(self, x, betas, rngs):
        x = np.asarray(x, dtype=np.int8)
        n, r = x.shape[:2]
        up = np.empty((N_SITES, n, r), dtype=np.int8)  # 1 where x = +1
        np.greater(np.moveaxis(x, -1, 0), 0, out=up)
        beta = np.asarray(betas, dtype=float)[:, None]
        s = np.arange(-4, 5, 2)
        p_table = (1.0 / (1.0 + np.exp(-2.0 * beta * s))).ravel()
        # chain k's p(+1) with j of 4 neighbours up is p_table[5 k + j]
        row = 5 * np.arange(n)[:, None]
        n_up = np.empty((n, r), dtype=np.int8)
        idx = np.empty((n, r), dtype=np.intp)
        p_plus = np.empty((n, r))
        u = np.empty((n, r))
        draws = list(zip(rngs, u))
        scan = [(up[site], [up[j] for j in SITE_NEIGHBOURS[site]])
                for site in range(N_SITES)]
        for _ in range(self.sweeps):
            for spin, (a, b, c, d) in scan:
                np.add(a, b, out=n_up)
                n_up += c
                n_up += d
                np.add(n_up, row, out=idx)
                np.take(p_table, idx, out=p_plus, mode="clip")
                for g, u_k in draws:
                    g.random(out=u_k)
                np.less(u, p_plus, out=spin)
        return np.ascontiguousarray(np.moveaxis(2 * up - 1, 0, -1))


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

    def step(self, x, betas, rngs):
        codes = np.stack([np.searchsorted(self._cdf(b), g.random(x.shape[1]))
                          for b, g in zip(betas, rngs)])
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

    def step(self, x, betas, rngs):
        # per chain, the uniforms that pick the cells, then the offsets
        u = np.stack([(g.random(x.shape[1]), g.random(x.shape[1]))
                      for g in rngs])
        cells = np.stack([np.searchsorted(self._cdf(b), uc)
                          for b, uc in zip(betas, u[:, 0])])
        left = self.edges[cells]
        width = self.edges[cells + 1] - left
        return left + width * u[:, 1]


class GaussianPathExplorer:
    """Exact sampler for the N(0,1) -> N(mu,1) path: pi_beta = N(beta mu, 1)."""

    def __init__(self, mu):
        self.mu = float(mu)

    def step(self, x, betas, rngs):
        z = np.stack([g.standard_normal(x.shape[1]) for g in rngs])
        return np.asarray(betas, dtype=float)[:, None] * self.mu + z


def lag1_independence_check(model, explorer, beta, rng, n_pairs=100_000):
    """Empirical correlation between V(input) and V(output) over one step
    from `n_pairs` reference draws.

    Under idealized exploration the output energy is independent of the
    input, so the correlation should vanish within Monte Carlo error.
    """
    x0 = model.sample_reference(rng, n_pairs)
    x1 = explorer.step(x0[None], [beta], [rng])[0]
    v0, v1 = energy(model, x0), energy(model, x1)
    return float(np.corrcoef(v0, v1)[0, 1])
