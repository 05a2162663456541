"""Desk-scale experiment recipes wiring the modules together.

Most recipes return a plain dict of arrays/floats; bimodal_clt_runs returns
an array, and tune and index_process_hitting_times tuples (see each
docstring).  The CLI dumps results as JSON/CSV and tests assert on them.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import AnnealingSchedule
from .diagnostics import empirical_tv_discrete
from .engine import PTConfig, rejection_rates, run_pt
from .explorers import (
    GaussianPathExplorer,
    IdealGridExplorer,
    IdealIsingExplorer,
    IsingGibbsExplorer,
)
from .gcb import estimate_gcb, pair_rejections, tuning_rounds
from .models import (
    bimodal_pair,
    codes_from_spins,  # noqa: F401 - perfbench/tracing.py patches this name
    ising_exact_distribution,
    ising_model,
)
from . import bounds
from .rng import INIT, MAIN, TUNE, make_stream


# ---------------------------------------------------------------------------
# Built-in models and the tuning and barrier recipes shared by all of them
# ---------------------------------------------------------------------------


def _ising_gibbs():
    return ising_model(), IsingGibbsExplorer(sweeps=3)


def _ising_ideal():
    return ising_model(), IdealIsingExplorer()


def _bimodal_grid():
    model = bimodal_pair()
    return model, IdealGridExplorer(model, lo=-600.0, hi=600.0)


@dataclass(frozen=True)
class ModelSpec:
    """A built-in model and the constants of its schedule tuning.

    ``build()`` returns a fresh (model, explorer) pair on every call, so the
    per-beta tables an explorer holds live no longer than one run.
    Tuning round k runs ``tune_replicas`` replicas for
    ``base_iters * 2**k`` iterations; ``rounds`` is the default round count.
    """

    build: Callable
    rounds: int
    base_iters: int
    tune_replicas: int


MODELS = {
    "ising": ModelSpec(_ising_gibbs, rounds=3, base_iters=128,
                       tune_replicas=256),
    "ising-ideal": ModelSpec(_ising_ideal, rounds=3, base_iters=128,
                             tune_replicas=256),
    "bimodal": ModelSpec(_bimodal_grid, rounds=6, base_iters=64,
                         tune_replicas=1000),
}


def _spec(name):
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}")
    return MODELS[name]


def _swap_stats(model, explorer, schedule, n_iters, n_replicas, seed,
                burn_in=0.2):
    cfg = PTConfig("nrpt", schedule, n_iters=n_iters, n_replicas=n_replicas,
                   seed=seed, record_energies=False)
    return rejection_rates(run_pt(cfg, model, explorer), burn_in=burn_in)


def tune(name, n, rounds=None, seed=0):
    """Equi-acceptance schedule for model `name` via budget-doubling rounds.

    Round k runs on the streams keyed (seed, TUNE, k).  `rounds` defaults
    to the model's own.  Returns (schedule, lambda_hat, BarrierFn) after
    the final round.
    """
    spec = _spec(name)
    model, explorer = spec.build()

    def run_fn(schedule, n_iters, k):
        return _swap_stats(model, explorer, schedule, n_iters,
                           spec.tune_replicas, (seed, TUNE, k))

    return tuning_rounds(run_fn, n,
                         rounds=spec.rounds if rounds is None else rounds,
                         base_iters=spec.base_iters)


def gcb(name, n, n_iters, n_replicas, burn_in, seed=0):
    """Barrier estimate for model `name` from a tuned equi-acceptance run.

    The main run draws from the streams keyed (seed, MAIN), apart from
    every tuning round's.
    """
    schedule, _, _ = tune(name, n, seed=seed)
    model, explorer = _spec(name).build()
    stats = _swap_stats(model, explorer, schedule, n_iters, n_replicas,
                        (seed, MAIN), burn_in)
    lam_hat, barrier = estimate_gcb(stats, schedule)
    return {
        "lambda_hat": lam_hat,
        "rejection_rates": stats.rejection,
        "schedule": schedule.betas,
        "barrier_knots": barrier.knots,
        "barrier_values": barrier.values,
    }


# ---------------------------------------------------------------------------
# Ising total-variation experiment
# ---------------------------------------------------------------------------


def ising_tv_experiment(n=5, n_iters=25, n_replicas=50_000, init="all-minus",
                        explorer="gibbs", schedule=None, seed=0):
    """The finite-chain TV validation on the 4x4 Ising target.

    Runs `n_replicas` independent NRPT instances, compares the empirical
    distribution of the target chain at every iteration to the exact
    enumeration of the target, and reports the hitting-time TV bound
    computed from the run's own mean rejection rate.
    """
    names = {"gibbs": "ising", "ideal": "ising-ideal"}
    if explorer not in names:
        raise ValueError(f"unknown explorer {explorer!r}")
    if schedule is None:
        schedule, _, _ = tune(names[explorer], n, seed=seed)
    model, kernel = _spec(names[explorer]).build()
    if init == "all-minus":
        init_states = np.zeros((n + 1, n_replicas), dtype=np.uint16)
    elif init == "random":
        rng = make_stream(seed, INIT)
        init_states = [model.sample_reference(rng, n_replicas)
                       for _ in range(n + 1)]
    else:
        raise ValueError(f"unknown init {init!r}")
    cfg = PTConfig("nrpt", schedule, n_iters=n_iters, n_replicas=n_replicas,
                   seed=(seed, MAIN), record_energies=False,
                   record_target_states=True)
    trace = run_pt(cfg, model, kernel, init_states=init_states)
    stats = rejection_rates(trace, burn_in=0.2)
    r_bar = float(np.mean(pair_rejections(stats)))
    exact = ising_exact_distribution(1.0)
    ts = np.arange(1, n_iters + 1)
    tv = np.empty(ts.size)
    floor = np.empty(ts.size)
    for i, t in enumerate(ts):
        tv[i], floor[i] = empirical_tv_discrete(trace.target_states[t - 1],
                                                exact)
    bound = bounds.tv_bound_finite("nrpt", n, r_bar, ts)
    return {
        "t": ts,
        "tv": tv,
        "noise_floor": floor,
        "bound": bound,
        "rejection_rates": stats.rejection,
        "r_bar": r_bar,
        "lambda_hat": stats.barrier_estimate,
        "schedule": schedule.betas,
        "n_replicas": n_replicas,
        "init": init,
        "explorer": explorer,
    }


# ---------------------------------------------------------------------------
# Bimodal Gaussian experiments
# ---------------------------------------------------------------------------


def bimodal_clt_runs(n_runs=500, n=6, n_iters=2000, seed=0):
    """Standardized batch-mean statistics of sign(x) on the target chain.

    Tunes an `n`-interval schedule with ``tune("bimodal", n, seed=seed)``,
    runs `n_runs` independent NRPT instances on it (as the replica
    dimension) and returns one standardized statistic per run:
    z = sqrt(T) * mean(f) / sigma_hat with sigma_hat from batch means.
    Needs n_iters >= 1000 (batch means) and n_runs >= 2 (A^2 needs a
    sample standard deviation), checked before any tuning.
    """
    from .diagnostics import asymptotic_variance

    if not (n_iters >= 1000 and n_runs >= 2):
        raise ValueError("need n_iters >= 1000 and n_runs >= 2, got "
                         f"n_iters={n_iters!r}, n_runs={n_runs!r}")
    model, explorer = _spec("bimodal").build()
    schedule, _, _ = tune("bimodal", n, seed=seed)
    cfg = PTConfig("nrpt", schedule, n_iters=n_iters, n_replicas=n_runs,
                   seed=(seed, MAIN), record_energies=False,
                   record_target_states=True)
    trace = run_pt(cfg, model, explorer)
    f = np.sign(trace.target_states)  # (T, runs); target is symmetric, E f = 0
    zs = np.empty(n_runs)
    for r in range(n_runs):
        sig2 = asymptotic_variance(f[:, r])
        zs[r] = np.sqrt(n_iters) * f[:, r].mean() / np.sqrt(sig2)
    return zs


# ---------------------------------------------------------------------------
# Finite-chain to infinite-chain convergence
# ---------------------------------------------------------------------------


def finite_vs_infinite(lam=4.0, n_values=(10, 30, 100)):
    """Sup-distances of scaled finite-chain tails from their continuum limits.

    Non-reversible: exact tail at floor(t N) with r = lam/N versus the
    exact continuum persistent-walk tail, for 39 points t in [1, 20];
    reversible: exact tail at floor(t N^2) versus the Brownian series, for
    30 points t in [0.05, 3].  Deterministic: no Monte Carlo runs.
    Returns nrpt_sup_diff_N{N} and rpt_sup_diff_N{N} for each N in order.
    Needs finite lam >= 0 and integer N >= 1 with lam/N < 1.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and non-negative, got {lam!r}")
    if not all(float(n).is_integer() and n >= 1 and lam / n < 1.0
               for n in n_values):
        raise ValueError("need integer N >= 1 with lam/N < 1, got "
                         f"lam={lam!r}, N={list(n_values)}")
    t_grid = np.linspace(1.0, 20.0, 39)
    limit = bounds.nrpt_infinite_tail(lam, t_grid)
    t_bm = np.linspace(0.05, 3.0, 30)
    series = bounds.rpt_infinite_tail(t_bm)
    out = {}
    for n in map(int, n_values):
        r = lam / n
        steps = np.floor(t_grid * n).astype(int)
        tails = bounds.hitting_tail("nrpt", n, r, steps)
        out[f"nrpt_sup_diff_N{n}"] = float(np.max(np.abs(tails - limit)))
        steps2 = np.floor(t_bm * n * n).astype(int)
        tails2 = bounds.hitting_tail("rpt", n, r, steps2)
        out[f"rpt_sup_diff_N{n}"] = float(np.max(np.abs(tails2 - series)))
    return out


# ---------------------------------------------------------------------------
# Idealized-exploration engine validation
# ---------------------------------------------------------------------------


def gaussian_equal_rate_mu(n, r):
    """Mean shift giving per-pair rejection r on the uniform N-interval
    schedule of the N(0,1) -> N(mu,1) path: r = 1 - 2 Phi(-mu/(N sqrt(2)))."""
    from scipy.special import ndtri

    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    return -n * np.sqrt(2.0) * ndtri((1.0 - r) / 2.0)


def index_process_hitting_times(scheme, n, r, n_replicas, n_iters, seed=0):
    """First times the machine starting at the reference reaches the target
    slot, from a PT run with exact path samplers (idealized exploration).

    Unfinished replicas are reported as n_iters + 1.
    """
    mu = gaussian_equal_rate_mu(n, r)
    from .models import gaussian_shift_pair

    model = gaussian_shift_pair(mu)
    cfg = PTConfig(scheme, AnnealingSchedule.uniform(n), n_iters=n_iters,
                   n_replicas=n_replicas, seed=seed, record_energies=False)
    trace = run_pt(cfg, model, GaussianPathExplorer(mu))
    slot0 = trace.index[:, 0, :]  # (T+1, R)
    hit = slot0 == n
    first = np.where(hit.any(axis=0), hit.argmax(axis=0), n_iters + 1)
    return first.astype(np.int64), trace
