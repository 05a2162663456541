"""Memory regression tests: traced peaks of fixed-size calls.

tracemalloc sees numpy's array allocations, so at a fixed size and seed
the peak a call reaches over the memory held when it starts is
deterministic.  Each bound sits between the peak before the change that
lowered it (the first number in the test) and the peak after (the
second): the swap record held as bits and each block's arrays dropped
with their block, the inverse-CDF tables cut to the entries a uniform
draw can reach, the grid explorer holding only its tables, the guides
built after the tables are joined and blocks of 512 KiB, the Gibbs
block buffers sized to a level and freed before the pack-out, the
laplace far zone built in blocks, and the Bromwich inversion holding one
block of far pairs and one chunk of t at a time.  One more test checks
that no reference cycle keeps an explorer, and so its tables, alive.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import reachable_arrays

from ptlab.core import AnnealingSchedule
from ptlab.engine import PTConfig, run_pt
from ptlab.bounds import nrpt_infinite_tail
from ptlab.experiments import BIMODAL_GRID, MODELS
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
    # a pinned doubling schedule: 17.84 MB with every distinct CDF value in
    # the tables, 14.54 MB without those in (0, 2^-53), which no key
    # reaches, 12.90 MB with the grid's edges, widths and path terms no
    # longer held by the explorer, and 10.44 MB with the guides built
    # after the tables are joined and blocks of 512 KiB
    model = bimodal_pair()
    explorer = IdealGridExplorer(model, *BIMODAL_GRID)
    schedule = AnnealingSchedule(np.r_[0.0, 2.0 ** np.arange(-11, 1)])
    cfg = PTConfig("nrpt", schedule, n_iters=512, n_replicas=1000, seed=3,
                   record_energies=False)
    trace, peak = traced_peak(run_pt, cfg, model, explorer)
    assert trace.accept_bits.nbytes == 512 * 12 * 125
    assert peak < 11.5


def test_table_load_peak():
    # one load of the pinned schedule's 12 grid tables, beta = 2^-11 ... 1,
    # 7.08 MB of tables: 10.96 MB with the guides allocated before the
    # tables are built, 8.59 MB with them allocated after the joins
    explorer = IdealGridExplorer(bimodal_pair(), *BIMODAL_GRID)
    betas, peak = traced_peak(explorer._cdf.prepare, 2.0 ** np.arange(-11, 1))
    assert len(betas) == 12
    assert peak < 9.5


def test_grid_explorer_holds_only_its_tables():
    # cell edges come from the grid formula and the path terms live for one
    # table load, so after a step only the tables are of the grid's size
    explorer = IdealGridExplorer(bimodal_pair(), *BIMODAL_GRID)
    explorer.step(np.zeros((3, 10)), [0.0, 0.5, 1.0],
                  [make_stream(4, c, 0) for c in range(3)])
    tables = {id(a) for a in (explorer._cdf._values, explorer._cdf._first,
                              explorer._cdf._guide)}
    large = [path for path, a in reachable_arrays(explorer)
             if a.size >= explorer.n_cells and id(a) not in tables]
    assert large == []


@pytest.mark.parametrize("name", list(MODELS))
def test_explorer_dies_with_its_last_reference(name):
    # no reference cycle holds an explorer, so its tables go when its run
    # drops it, not when the cyclic collector next runs
    gc.disable()
    try:
        model, explorer = MODELS[name].build()
        x = model.sample_reference(make_stream(5, 0, 0), 30).reshape(3, 10)
        explorer.step(x, [0.0, 0.5, 1.0],
                      [make_stream(6, c, 0) for c in range(3)])
        ref = weakref.ref(explorer)
        del explorer
        assert ref() is None
    finally:
        gc.enable()


def test_gibbs_step_peak():
    # one 3-sweep call over ising-validate's 5 explored chains of 20,000
    # replicas: 6.74 MB before the level schedule, 5.02 MB after it, and
    # 3.11 MB with one neighbour count per slot of a level and the block
    # buffers freed before the pack-out
    n, r = 5, 20_000
    x = ising_model().sample_reference(make_stream(1, 0, 0), n * r)
    x = x.reshape(n, r)
    betas = np.linspace(0.2, 1.0, n)
    rngs = [make_stream(2, c, 0) for c in range(n)]
    explorer = IsingGibbsExplorer(sweeps=3)
    explorer.step(x[:, :16], betas, rngs)  # compile the level schedules
    out, peak = traced_peak(explorer.step, x, betas, rngs)
    assert out.shape == (n, r) and out.dtype == np.uint16
    assert peak < 4.0


def test_laplace_peak():
    # C(1) over the default grid, whose far zone holds 74k pairs of nodes:
    # 9.89 MB with every far node and its coefficients' temporaries held at
    # once, 6.52 MB with the coefficients filled block by block in place,
    # and 1.22 MB with one block of coefficients and one chunk of t's near
    # zone held at a time
    (sup, _, curve), peak = traced_peak(estimate_C_sup, 1.0)
    assert curve.shape == (200,) and abs(sup - 0.632) <= 0.02
    assert peak < 2.0


def test_laplace_many_t_peak():
    # the exact NRPT tail at 10,001 t, as `bounds --scheme nrpt --tmax
    # 10000` reads it: 99.51 MB with every t's near-zone terms and
    # full-length far phases held at once, 1.99 MB with one chunk of t and
    # one block of pairs at a time
    tail, peak = traced_peak(nrpt_infinite_tail, 2.76, np.arange(10_001) / 6)
    assert tail.shape == (10_001,) and tail[0] == 1.0
    assert peak < 4.0
