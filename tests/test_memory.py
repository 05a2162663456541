"""Memory regression tests: traced peaks of fixed-size calls.

tracemalloc sees numpy's array allocations, so at a fixed size and seed
the peak a call reaches over the memory held when it starts is
deterministic.  Each bound sits between the peak before the change that
lowered it (the first number in the test) and the peak after (the
second): the swap record held as bits and each block's arrays dropped
with their block, and the laplace far zone built in blocks.
"""

import tracemalloc

import numpy as np

from ptlab.core import AnnealingSchedule
from ptlab.engine import PTConfig, run_pt
from ptlab.explorers import IdealGridExplorer, IsingGibbsExplorer
from ptlab.laplace import estimate_C_sup
from ptlab.models import bimodal_pair, ising_model
from ptlab.rng import make_stream

MB = 1 << 20


def traced_peak(fn, *args):
    """fn's result and the peak traced memory it reached over its start,
    in MB."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, (peak - start) / MB


def test_bimodal_run_peak():
    # the last round of `tune --model bimodal --chains 13 --rounds 4`, on
    # a pinned doubling schedule: 24.80 MB before, 17.84 MB after
    model = bimodal_pair()
    explorer = IdealGridExplorer(model, lo=-600.0, hi=600.0)
    schedule = AnnealingSchedule(np.r_[0.0, 2.0 ** np.arange(-11, 1)])
    cfg = PTConfig("nrpt", schedule, n_iters=512, n_replicas=1000, seed=3,
                   record_energies=False)
    trace, peak = traced_peak(run_pt, cfg, model, explorer)
    assert trace.accept_bits.nbytes == 512 * 12 * 125
    assert peak < 21.0


def test_gibbs_step_peak():
    # one 3-sweep call over ising-validate's 5 explored chains of 20,000
    # replicas: 6.74 MB before, 5.02 MB after
    n, r = 5, 20_000
    x = ising_model().sample_reference(make_stream(1, 0, 0), n * r)
    x = x.reshape(n, r)
    betas = np.linspace(0.2, 1.0, n)
    rngs = [make_stream(2, c, 0) for c in range(n)]
    explorer = IsingGibbsExplorer()
    explorer.step(x[:, :16], betas, rngs)  # compile the level schedules
    out, peak = traced_peak(explorer.step, x, betas, rngs)
    assert out.shape == (n, r) and out.dtype == np.uint16
    assert peak < 5.9


def test_laplace_peak():
    # C(1) over the default grid, whose far zone holds 74k pairs of nodes:
    # 9.89 MB with every far node and its coefficients' temporaries held at
    # once, 6.52 MB with the coefficients filled block by block in place
    (sup, _, curve), peak = traced_peak(estimate_C_sup, 1.0)
    assert curve.shape == (200,) and abs(sup - 0.632) <= 0.02
    assert peak < 8.0
