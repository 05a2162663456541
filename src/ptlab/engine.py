"""The parallel-tempering meta-algorithm.

One iteration is a parallel exploration step on every chain followed by a
communication step that proposes swaps between adjacent chains of one
parity class.  Non-reversible PT (NRPT) alternates the parity
deterministically, even first; reversible PT (RPT) draws the parity
uniformly at random each iteration.  The engine also tracks the index
process (which machine carries which chain slot, and its proposed
direction), from which rejection rates, restarts, and ancestral survival
are derived.

All replicas evolve simultaneously as a vector dimension; a run is fully
determined by (config, model, kernels).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import AnnealingSchedule, energy, swap_acceptance
from .rng import make_stream

NRPT = "nrpt"
RPT = "rpt"


@dataclass
class PTConfig:
    scheme: str
    schedule: AnnealingSchedule
    n_iters: int
    n_replicas: int = 1
    seed: int = 0
    record_energies: bool = True
    record_indices: bool = True
    record_target_states: bool = False

    def __post_init__(self):
        self.scheme = self.scheme.lower()
        if self.scheme not in (NRPT, RPT):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.n_iters < 1 or self.n_replicas < 1:
            raise ValueError("need n_iters >= 1 and n_replicas >= 1")


@dataclass
class PTTrace:
    """Recorded series of one (possibly replicated) PT run.

    Shapes: T iterations, N intervals (N+1 chains), R replicas.
    ``parities`` has length T+1 (NRPT) or shape (T+1, R) (RPT); the extra
    entry supplies the proposal pattern needed to close the direction
    update of the index process at the final iteration.
    ``accepts[t, n, r]`` is True when the swap of pair (n, n+1) was
    proposed and accepted.  ``energies[t]`` holds end-of-iteration
    (post-swap) chain energies.
    """

    scheme: str
    betas: np.ndarray
    n_iters: int
    n_replicas: int
    parities: np.ndarray
    accepts: np.ndarray
    energies: Optional[np.ndarray] = None
    index: Optional[np.ndarray] = None      # (T+1, N+1, R) slot of machine n
    direction: Optional[np.ndarray] = None  # (T+1, N+1, R) proposed direction
    target_states: Optional[np.ndarray] = None
    final_states: Optional[list] = None

    @property
    def n_intervals(self):
        return self.betas.size - 1


def _proposed_mask(parity, n_pairs):
    """Boolean (n_pairs,) or (n_pairs, R): pair n proposed iff n % 2 == parity."""
    pairs = np.arange(n_pairs)
    if np.ndim(parity) == 0:
        return (pairs % 2) == parity
    return (pairs[:, None] % 2) == parity[None, :]


def communication_step(energies, schedule, parity, rng):
    """One swap round: returns acceptance indicators of shape (N, R).

    ``energies`` is (N+1, R) (or (N+1,) for a single replica); ``parity``
    is 0 (even pairs) or 1 (odd pairs), scalar or per-replica vector.
    Acceptance depends on the energies only, never on the states.
    """
    v = np.atleast_2d(np.asarray(energies, dtype=float))
    if v.shape[0] < 2:
        raise ValueError("need at least two chains")
    betas = schedule.betas
    n_pairs = v.shape[0] - 1
    r = v.shape[1]
    proposed = _proposed_mask(parity, n_pairs)
    if proposed.ndim == 1:
        proposed = np.broadcast_to(proposed[:, None], (n_pairs, r))
    accepts = np.zeros((n_pairs, r), dtype=bool)
    u = rng.random((n_pairs, r))
    for n in range(n_pairs):
        if not proposed[n].any():
            continue
        alpha = swap_acceptance(betas[n], betas[n + 1], v[n], v[n + 1])
        accepts[n] = proposed[n] & (u[n] < alpha)
    return accepts


def update_index_process(index, direction, accepts, next_parity, n_intervals):
    """Advance (I, eps) one iteration, vectorized over machines and replicas.

    A machine moves by its direction when the swap of its pair
    (I, I + eps) was accepted; its new direction is +1 exactly when its
    new slot proposes an upward swap at the next iteration.
    """
    n_chains, r = index.shape
    eps = direction.astype(np.int32)
    i = index.astype(np.int32)
    pair = np.where(eps > 0, i, i - 1)
    valid = (pair >= 0) & (pair < n_intervals)
    pair_safe = np.clip(pair, 0, n_intervals - 1)
    rep = np.broadcast_to(np.arange(r)[None, :], (n_chains, r))
    moved = valid & accepts[pair_safe, rep]
    i_new = i + np.where(moved, eps, 0)
    if np.ndim(next_parity) == 0:
        upward = ((i_new % 2) == next_parity) & (i_new < n_intervals)
    else:
        upward = ((i_new % 2) == next_parity[None, :]) & (i_new < n_intervals)
    eps_new = np.where(upward, 1, -1)
    return i_new.astype(np.int16), eps_new.astype(np.int8)


def run_pt(config, model, kernels, init_states=None):
    """Run parallel tempering (Algorithm: explore, then communicate).

    Parameters
    ----------
    config : PTConfig
    model : TargetModel
    kernels : sequence of exploration kernels, one per chain; kernels[0]
        should be the i.i.d. reference sampler so that accepted swaps into
        chain 0 trigger genuine restarts.
    init_states : list of per-chain state arrays (each with leading axis
        R), or None to initialize every chain from the reference sampler.

    Returns
    -------
    PTTrace
    """
    betas = config.schedule.betas
    n = config.schedule.n_intervals
    n_chains = n + 1
    if len(kernels) != n_chains:
        raise ValueError("need one kernel per chain")
    t_iters, r = config.n_iters, config.n_replicas

    explore_rngs = [make_stream(config.seed, chain=c) for c in range(n_chains)]
    comm_rng = make_stream(config.seed, chain=n_chains)
    parity_rng = make_stream(config.seed, chain=n_chains + 1)

    if init_states is None:
        if model.sample_reference is None:
            raise ValueError("no init_states and no reference sampler")
        states = [model.sample_reference(explore_rngs[c], r) for c in range(n_chains)]
    else:
        states = [np.array(s) for s in init_states]
        if len(states) != n_chains:
            raise ValueError("init_states must have one entry per chain")

    if config.scheme == NRPT:
        parities = (np.arange(t_iters + 1) % 2).astype(np.int8)
    else:
        parities = parity_rng.integers(0, 2, size=(t_iters + 1, r)).astype(np.int8)

    accepts = np.zeros((t_iters, n, r), dtype=bool)
    energies = np.zeros((t_iters, n_chains, r)) if config.record_energies else None
    target_states = None

    if config.record_indices:
        index = np.zeros((t_iters + 1, n_chains, r), dtype=np.int16)
        direction = np.zeros((t_iters + 1, n_chains, r), dtype=np.int8)
        index[0] = np.arange(n_chains, dtype=np.int16)[:, None]
        p0 = parities[0]
        chain_ids = np.arange(n_chains)
        if np.ndim(p0) == 0:
            up0 = ((chain_ids % 2) == p0) & (chain_ids < n)
            direction[0] = np.where(up0, 1, -1)[:, None]
        else:
            up0 = ((chain_ids[:, None] % 2) == p0[None, :]) & (chain_ids[:, None] < n)
            direction[0] = np.where(up0, 1, -1)
    else:
        index = direction = None

    for t in range(t_iters):
        for c in range(n_chains):
            states[c] = kernels[c].step(states[c], betas[c], explore_rngs[c])
        v = np.stack([np.atleast_1d(energy(model, states[c])) for c in range(n_chains)])
        parity = parities[t]
        acc = communication_step(v, config.schedule, parity, comm_rng)
        accepts[t] = acc
        # execute accepted swaps (disjoint pairs, order irrelevant)
        for pair in range(n):
            mask = acc[pair]
            if not mask.any():
                continue
            tmp = states[pair][mask].copy()
            states[pair][mask] = states[pair + 1][mask]
            states[pair + 1][mask] = tmp
            v[pair, mask], v[pair + 1, mask] = v[pair + 1, mask], v[pair, mask].copy()
        if energies is not None:
            energies[t] = v
        if config.record_indices:
            index[t + 1], direction[t + 1] = update_index_process(
                index[t], direction[t], acc, parities[t + 1], n
            )
        if config.record_target_states:
            if target_states is None:
                target_states = np.zeros((t_iters,) + np.asarray(states[n]).shape,
                                         dtype=np.asarray(states[n]).dtype)
            target_states[t] = states[n]

    return PTTrace(
        scheme=config.scheme,
        betas=betas,
        n_iters=t_iters,
        n_replicas=r,
        parities=parities,
        accepts=accepts,
        energies=energies,
        index=index,
        direction=direction,
        target_states=target_states,
        final_states=states,
    )


@dataclass(frozen=True)
class SwapStats:
    """Per-pair swap statistics; rejection[n] = 1 - accepted/proposed."""

    proposed: np.ndarray
    accepted: np.ndarray
    rejection: np.ndarray

    @property
    def barrier_estimate(self):
        return float(self.rejection.sum())


def rejection_rates(trace, burn_in=0.0):
    """Per-pair empirical rejection rates r_hat from a trace.

    ``burn_in`` is the fraction of initial iterations discarded.  Pairs
    with zero proposals get rejection NaN (flagged missing, never 0).
    """
    t0 = int(np.floor(burn_in * trace.n_iters))
    n = trace.n_intervals
    acc = trace.accepts[t0:]
    t_kept = acc.shape[0]
    parities = trace.parities[t0:t0 + t_kept]
    prop_counts = np.array([
        int(((p % 2) == parities).sum()) for p in range(n)
    ])
    if parities.ndim == 1:  # one parity per iteration, shared by replicas
        prop_counts = prop_counts * trace.n_replicas
    acc_counts = acc.sum(axis=(0, 2))
    with np.errstate(invalid="ignore"):
        rej = 1.0 - acc_counts / prop_counts
    rej = np.where(prop_counts == 0, np.nan, rej)
    return SwapStats(proposed=prop_counts, accepted=acc_counts, rejection=rej)


def restart_count(trace):
    """Completed reference-to-target traversals, summed over machines,
    replicas, and time.

    A traversal is counted each time a machine's slot path reaches N after
    last having touched 0 (without touching N in between).
    """
    if trace.index is None:
        raise ValueError("trace did not record the index process")
    idx = trace.index
    n = trace.n_intervals
    # last boundary touched: 0 -> bottom, 1 -> top, -1 -> none yet
    last = np.full(idx.shape[1:], -1, dtype=np.int8)
    last[idx[0] == 0] = 0
    last[idx[0] == n] = 1
    count = 0
    for t in range(1, idx.shape[0]):
        at_top = idx[t] == n
        at_bot = idx[t] == 0
        count += int((at_top & (last == 0)).sum())
        last = np.where(at_top, 1, np.where(at_bot, 0, last)).astype(np.int8)
    return count


def ancestral_survival(trace, t):
    """Fraction of replicas whose ancestral slot path avoids 0 before t.

    The machine occupying the target chain at iteration t is traced
    backward; the event of interest is that its path never visited slot 0
    at any iteration s < t.
    """
    if trace.index is None:
        raise ValueError("trace did not record the index process")
    if not 1 <= t <= trace.n_iters:
        raise ValueError("t outside recorded range")
    idx = trace.index
    n = trace.n_intervals
    r = trace.n_replicas
    at_target = idx[t] == n  # (n_chains, R)
    nstar = at_target.argmax(axis=0)
    path = idx[:t, nstar, np.arange(r)]  # (t, R)
    hit_bottom = (path == 0).any(axis=0)
    return float(1.0 - hit_bottom.mean())
