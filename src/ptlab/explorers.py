"""Explorers: the within-chain moves of parallel tempering.

Every explorer exposes ``step(x, betas, rngs) -> x`` over a block of chains:
``x`` has shape (n, R, ...) with chain along the first axis and replicas
along the second, ``betas`` has shape (n,), and ``rngs`` holds one stream
per chain, in chain order.  Chain k draws only from ``rngs[k]``, so each
chain's draws do not depend on which other chains share the call.  The
ideal and Gaussian explorers leave the path distribution pi_beta invariant
at each chain's beta; the Gibbs explorer rounds p(+1) up to a multiple of
2^-32, so each of its site updates moves pi_beta by less than 2^-32 in
total variation.  The i.i.d. reference sampler ignores beta.  The ideal
explorers hold inverse-CDF tables for the betas of their last call only;
a lookup gives the same cells whatever the tables held, so one explorer
object can serve many runs.
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


DRAW_BUFFER_BYTES = 1 << 20  # the uint32 draws of one block, all chains


def gibbs_thresholds(betas):
    """The (n, 5) uint32 thresholds T = ceil(p 2^32) of the Gibbs kernel.

    Row k holds chain k's T for j = 0..4 neighbours up, with
    p = 1 / (1 + exp(-2 beta s)) and neighbour sum s = 2 j - 4.  p 2^32
    is exact, so T is the ceil of the exact product, and T / 2^32 lies in
    [p, p + 2^-32).  T is clamped to 2^32 - 1, so that p > 1 - 2^-32
    (beta > 2.77) cannot overflow the cast.
    """
    beta = np.asarray(betas, dtype=float)[:, None]
    p_plus = 1.0 / (1.0 + np.exp(-2.0 * beta * np.arange(-4, 5, 2)))
    return np.minimum(np.ceil(p_plus * 2.0**32),
                      2.0**32 - 1).astype(np.uint32)


def uint32_draws(g, size):
    """The next `size` 32-bit draws of `g`, `size` even, in one call.

    Two draws per Philox output, low half first on a little-endian host:
    numpy's own ``next_uint32`` order, so on a stream with no half-word
    buffered they equal ``g.integers(0, 2**32, size, dtype=np.uint32)``,
    at about half its cost.
    """
    return g.bit_generator.random_raw(size // 2).view(np.uint32)


class IsingGibbsExplorer:
    """Systematic-scan single-site Gibbs sweeps on the 4x4 torus.

    Each call performs `sweeps` full raster-order passes; every site is
    resampled from its conditional under pi_beta given its 4 neighbours,
    p(+1) = 1 / (1 + exp(-2 beta s)) with s the neighbour sum.  s is one
    of -4, -2, 0, 2, 4, so each call tabulates once per chain a 5-entry
    row of thresholds T = ceil(p(+1) 2^32) (``gibbs_thresholds``), and a
    site update is one lookup in that table.  For the call the spins are
    held site-major, (16, n, R), as 0/1.  The draws are 32-bit
    (``uint32_draws``): per site, one uint32 u per replica from each
    chain's stream, in raster order.  The site becomes +1 where u < T, so
    P(+1) = T / 2^32 lies in [p, p + 2^-32).  A chain's draws for a block
    of sites come from one call.  A block holds as many sites as fit
    DRAW_BUFFER_BYTES over all chains, at least one; when R is odd the
    count is made even, at least two.  A call's 16 × sweeps sites are even
    in number too, so no block ends inside a Philox output and the draws
    do not depend on the blocking.
    ``x`` must hold +-1 spins.
    """

    def __init__(self, sweeps=3):
        self.sweeps = sweeps

    def step(self, x, betas, rngs):
        x = np.asarray(x, dtype=np.int8)
        n, r = x.shape[:2]
        up = np.empty((N_SITES, n, r), dtype=np.int8)  # 1 where x = +1
        np.greater(np.moveaxis(x, -1, 0), 0, out=up)
        t_table = gibbs_thresholds(betas).ravel()
        # chain k's threshold with j of 4 neighbours up is t_table[5 k + j]
        row = 5 * np.arange(n)[:, None]
        n_up = np.empty((n, r), dtype=np.int8)
        idx = np.empty((n, r), dtype=np.intp)
        thresh = np.empty((n, r), dtype=np.uint32)
        per_block = max(1, DRAW_BUFFER_BYTES // (4 * n * r))
        if r % 2:
            per_block = max(2, per_block - per_block % 2)
        u = np.empty((n, per_block * r), dtype=np.uint32)
        u_site = [u[:, j * r:(j + 1) * r] for j in range(per_block)]
        scan = [(up[site], [up[j] for j in SITE_NEIGHBOURS[site]])
                for site in range(N_SITES)] * self.sweeps
        for start in range(0, len(scan), per_block):
            block = scan[start:start + per_block]
            m = len(block) * r  # even: see the class docstring
            for k, g in enumerate(rngs):
                u[k, :m] = uint32_draws(g, m)
            for u_j, (spin, (a, b, c, d)) in zip(u_site, block):
                np.add(a, b, out=n_up)
                n_up += c
                n_up += d
                np.add(n_up, row, out=idx)
                t_table.take(idx, out=thresh, mode="clip")
                np.less(u_j, thresh, out=spin)
        return np.ascontiguousarray(np.moveaxis(2 * up - 1, 0, -1))


GUIDE_SIZE = 1 << 16  # a power of two, so u * GUIDE_SIZE is exact


class _InverseCdf:
    """Inverse-CDF lookup over a block of chains, with guide tables.

    ``cells(betas, u)`` returns ``np.searchsorted(cdf_k, u[k])`` for every
    chain k in one vectorized pass, where cdf_k is the normalised CDF of
    exp(log_weights(betas[k])) and ``u`` (n, R) lies in [0, 1).  A beta's
    table holds the distinct CDF values, the first cell of each (so a
    plateau of zero-weight cells is one entry) and a guide of
    GUIDE_SIZE + 1 entries, guide[j] = #(values < j / GUIDE_SIZE) (Chen &
    Asau 1974; Devroye 1986, sec. III.2.4).  A key in guide slot
    j = floor(u GUIDE_SIZE) has its answer in [guide[j], guide[j + 1]]; a
    bisection over the keys whose range is not empty finishes it.  The
    chains' tables are concatenated; chain k's guide entries are offset
    by the start of its table, in int64, when a key is looked up.

    Only the tables of the last call's betas are held.  When the betas
    change, every table is rebuilt from the caller's exact beta.
    """

    def __init__(self, log_weights):
        self.log_weights = log_weights
        self.betas = ()  # the betas whose tables are held, in chain order

    def _build(self, beta):
        logw = self.log_weights(beta)
        cdf = np.cumsum(np.exp(logw - logw.max()))
        cdf /= cdf[-1]
        first = np.flatnonzero(np.r_[True, cdf[1:] != cdf[:-1]])
        values = cdf[first]
        per_slot = np.bincount((values * GUIDE_SIZE).astype(np.intp),
                               minlength=GUIDE_SIZE + 1)
        guide = np.zeros(GUIDE_SIZE + 1, dtype=np.int32)
        np.cumsum(per_slot[:GUIDE_SIZE], out=guide[1:])
        return values, first.astype(np.int32), guide

    def _load(self, betas):
        # drop the old tables before building, and each array's parts as
        # soon as they are joined, so that only one array is held twice
        self.betas, self._values, self._first, self._guide = (), None, None, None
        values, first, guide = zip(*[self._build(b) for b in betas])
        self._starts = np.cumsum([0] + [len(v) for v in values])
        self._values = np.concatenate(values)
        del values
        self._first = np.concatenate(first)
        del first
        self._guide = np.stack(guide)
        self.betas = betas

    def cells(self, betas, u):
        betas = tuple(float(b) for b in betas)
        if betas != self.betas:
            self._load(betas)
        slot = (u * GUIDE_SIZE).astype(np.intp)
        slot += (GUIDE_SIZE + 1) * np.arange(len(betas))[:, None]
        start = self._starts[:-1, None]
        lo = (self._guide.take(slot) + start).ravel()
        hi = (self._guide.take(slot + 1) + start).ravel()
        # bisect [lo, hi] for the first value >= u, over the keys still open
        open_ = np.flatnonzero(lo < hi)
        key = u.ravel()[open_]
        a, b = lo[open_], hi[open_]
        while open_.size:
            mid = (a + b) >> 1
            below = self._values[mid] < key
            a = np.where(below, mid + 1, a)
            b = np.where(below, b, mid)
            lo[open_] = a
            more = a < b
            open_, key, a, b = open_[more], key[more], a[more], b[more]
        return self._first[lo].reshape(u.shape)


class IdealIsingExplorer:
    """Exact i.i.d. sampling from pi_beta over all 65,536 Ising states.

    A state is one inverse-CDF lookup in the chain's table of
    exp(beta * bond sum) over all states, so the kernel renews the energy
    i.i.d. — the idealized-exploration model holds exactly.
    """

    def __init__(self):
        self._cdf = _InverseCdf(
            lambda beta: beta * ising_bond_sums().astype(float))

    def step(self, x, betas, rngs):
        u = np.stack([g.random(x.shape[1]) for g in rngs])
        return spins_from_codes(self._cdf.cells(betas, u))


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
        self._cdf = _InverseCdf(
            lambda beta: log_path_density(self.model, beta, self.mids))

    def step(self, x, betas, rngs):
        # per chain, the uniforms that pick the cells, then the offsets
        r = x.shape[1]
        u = np.empty((len(rngs), 2 * r))
        for k, g in enumerate(rngs):
            g.random(out=u[k])
        cells = self._cdf.cells(betas, u[:, :r])
        left = self.edges[cells]
        width = self.edges[cells + 1] - left
        return left + width * u[:, r:]


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
