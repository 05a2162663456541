"""Regenerate the bimodal barrier reference used by the tune-bimodal check.

    PYTHONPATH=src python3 perfbench/reference.py

Lambda = (1/2) int_0^1 E|V - V'| d(beta) for the bimodal path, estimated
with ptlab.gcb.gcb_direct_mc.  Exact draws from pi_beta come from an
inverse-CDF table on the same 120,000-cell grid the ideal grid explorer
uses.  The integrand grows like beta**(-1/2) as beta -> 0, so the uniform
midpoint rule converges slowly in beta (1000 nodes: 2.697, 2000: 2.733,
4000: 2.757).  Substituting beta = u**2 makes the integrand bounded, and
the estimate no longer moves with the node count.  The reference is the
mean over independent seeds, with its standard error.
"""

import statistics

import numpy as np

from ptlab.core import energy
from ptlab.gcb import gcb_direct_mc
from ptlab.models import bimodal_pair

N_CELLS = 120_000
LO, HI = -600.0, 600.0


def squared_beta_sampler():
    """(u, rng, size) -> 2u V(X) with X ~ pi_{u^2}, drawn exactly on the grid.

    Because E|cV - cV'| = c E|V - V'|, the midpoint rule in u applied to
    these draws integrates E|V - V'| against d(beta) = 2u du.
    """
    model = bimodal_pair()
    edges = np.linspace(LO, HI, N_CELLS + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    v_mids = energy(model, mids)
    log_ref = np.asarray(model.log_reference(mids), dtype=float)

    def sample(u, rng, size):
        logp = log_ref - u * u * v_mids
        cdf = np.cumsum(np.exp(logp - logp.max()))
        cdf /= cdf[-1]
        cells = np.searchsorted(cdf, rng.random(size))
        x = edges[cells] + (edges[cells + 1] - edges[cells]) * rng.random(size)
        return 2.0 * u * energy(model, x)

    return sample


def bimodal_barrier(seeds=range(8), n_beta=200, n_pairs=10_000):
    """(mean, standard error) of the barrier over independent seeds."""
    sampler = squared_beta_sampler()
    values = [gcb_direct_mc(sampler, seed=s, n_beta=n_beta, n_pairs=n_pairs)
              for s in seeds]
    return statistics.fmean(values), statistics.stdev(values) / len(values) ** 0.5


if __name__ == "__main__":
    mean, se = bimodal_barrier()
    print(f"bimodal barrier {mean:.4f} (standard error {se:.4f})")
    for n_beta in (100, 400):
        value, err = bimodal_barrier(seeds=[100, 101], n_beta=n_beta)
        print(f"  {n_beta} nodes: {value:.4f} ({err:.4f})")
