"""The parallel-tempering meta-algorithm.

One iteration is a parallel exploration step on every chain followed by a
communication step that proposes swaps between adjacent chains of one
parity class.  Non-reversible PT (NRPT) alternates the parity
deterministically, even first; reversible PT (RPT) draws the parity
uniformly at random each iteration.

The states of all chains and replicas are held as one array of shape
(N+1, R, ...).  Chain 0 is redrawn every iteration as an exact i.i.d.
sample from the model's reference, so an accepted swap into it is a
genuine restart; chains 1..N move under one explorer in a single call,
each chain on its own stream.  One energy call covers the whole array.
The swap rule is stated once, as the slot map of a swap round
(``slot_map``).  The run gathers states and energies through it, by one
flat take over the (N+1)*R rows, and records only its decisions: the
parities, and the accepts packed eight replicas to a byte.  The index
process (the slot of each machine), from which restarts and ancestral
survival are derived, is the same map replayed by the same gather on
first read, and a machine's direction is derived from its slot and the
parity.  When the explorer renews its state
(``renews = True``, see ``explorers``), iterations do not read one
another's states, and a block of them runs as one wide iteration over
their replicas side by side.  A run is fully determined by (config,
model, explorer), whatever the block size.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .core import AnnealingSchedule, energy, swap_acceptance
from .explorers import IIDReferenceExplorer
from .rng import make_stream

NRPT = "nrpt"
RPT = "rpt"

BLOCK_BYTES = 1 << 19  # one block of iterations, counted at 8 bytes a state


@dataclass
class PTConfig:
    scheme: str
    schedule: AnnealingSchedule
    n_iters: int
    n_replicas: int = 1
    seed: Union[int, tuple] = 0  # a master seed or a key tuple; see rng
    record_energies: bool = True
    record_target_states: bool = False

    def __post_init__(self):
        self.scheme = self.scheme.lower()
        if self.scheme not in (NRPT, RPT):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.n_iters < 1 or self.n_replicas < 1:
            raise ValueError("need n_iters >= 1 and n_replicas >= 1")


@dataclass
class PTTrace:
    """Recorded decisions of one (possibly replicated) PT run.

    Shapes: T iterations, N intervals (N+1 chains), R replicas.
    ``accept_bits`` (T, N, ceil(R/8)) uint8 holds the swap record as bits:
    bit i % 8 (least significant first) of byte [t, n, i // 8] is 1 where
    the swap of pair (n, n+1) was proposed and accepted in replica i at
    iteration t, as ``np.packbits(..., axis=-1, bitorder="little")``
    writes it, and the pad bits of the last byte are 0.  ``accepts`` is
    that record unpacked, (T, N, R) bool, made afresh on each read.
    ``parities`` is (T+1, R) for both schemes (a read-only broadcast view
    under NRPT); its last row gives the final direction.  T is read from
    ``accept_bits`` and R from ``parities``.  ``energies[t]`` holds
    end-of-iteration (post-swap) chain energies.  ``index`` (T+1, N+1, R)
    is the slot of each machine, the rounds' slot maps replayed, and
    ``slot_direction`` gives each machine's direction from it.
    """

    scheme: str
    betas: np.ndarray
    parities: np.ndarray
    accept_bits: np.ndarray
    energies: Optional[np.ndarray] = None
    target_states: Optional[np.ndarray] = None
    final_states: Optional[np.ndarray] = None

    @property
    def n_iters(self):
        return self.accept_bits.shape[0]

    @property
    def n_replicas(self):
        return self.parities.shape[1]

    @property
    def n_intervals(self):
        return self.betas.size - 1

    @property
    def accepts(self):
        accepts = _unpack(self.accept_bits, self.n_replicas)
        accepts.flags.writeable = False
        return accepts

    @cached_property
    def index(self):
        index = np.empty((self.n_iters + 1, self.n_intervals + 1,
                          self.n_replicas), dtype=np.int16)
        index[0] = np.arange(self.n_intervals + 1)[:, None]
        for t in range(self.n_iters):
            index[t + 1] = update_index_process(
                index[t], _unpack(self.accept_bits[t], self.n_replicas))
        return index


def slot_direction(index, parity, n_intervals):
    """+1 where slot ``index`` proposes an upward swap at ``parity`` (which
    broadcasts against it), else -1; the top slot n_intervals is always -1."""
    upward = _proposed(index, parity) & (index < n_intervals)
    return np.where(upward, np.int8(1), np.int8(-1))


# set bits of each byte value
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                          axis=1).sum(axis=1, dtype=np.uint8)


def _unpack(bits, r):
    """The bool accepts of R = ``r`` replicas packed in ``bits``."""
    return np.unpackbits(bits, axis=-1, count=r,
                         bitorder="little").view(bool)


def _proposed(pair, parity):
    """True where the swap of pair (pair, pair+1) is proposed at ``parity``,
    that is where pair % 2 == parity, read off the low bit (no division)."""
    return (pair & 1) == parity


def _check_walk(scheme, n, r):
    """Validated (scheme, rates) of an n-interval index walk: ``r`` is a
    scalar or one rejection rate per pair, each in [0, 1), and the rates
    come back broadcast to the n pairs."""
    if scheme.lower() not in (NRPT, RPT):
        raise ValueError(f"unknown scheme {scheme!r}")
    if n < 1:
        raise ValueError("need at least one interval (n >= 1)")
    r = np.asarray(r, dtype=float)
    if r.shape not in ((), (n,)):
        raise ValueError(f"r must be a scalar or have length n = {n}, "
                         f"got shape {r.shape}")
    if not np.all((r >= 0.0) & (r < 1.0)):
        raise ValueError("rejection rate r must lie in [0, 1)")
    return scheme.lower(), np.broadcast_to(r, (n,))


def slot_map(accepts):
    """Slot map of one swap round: slot n takes its content from src[n].

    ``accepts`` is (N, R); the result is (N+1, R).  Accepted pairs are
    disjoint transpositions, so the map is its own inverse: the content of
    slot n also moves to src[n].
    """
    n, r = accepts.shape
    src = np.repeat(np.arange(n + 1)[:, None], r, axis=1)
    src[:-1] += accepts
    src[1:] -= accepts
    return src


def communication_step(energies, schedule, parity, rng):
    """One swap round: returns acceptance indicators of shape (N, R).

    ``energies`` is (N+1, R), or (N+1,) for a single replica; ``parity``
    is 0 (even pairs) or 1 (odd pairs), scalar or per-replica vector of
    shape (R,).  Acceptance depends on the energies only, never on the
    states.  The uniforms are drawn replica by replica, N per replica, so
    one call over the columns of b rounds side by side draws what b calls
    would.
    """
    v = np.asarray(energies, dtype=float)
    v = v.reshape(v.shape[0], -1)
    if v.shape[0] < 2:
        raise ValueError("need at least two chains")
    n_pairs = v.shape[0] - 1
    betas = schedule.betas[:, None]
    u = rng.random((v.shape[1], n_pairs)).T
    alpha = swap_acceptance(betas[:-1], betas[1:], v[:-1], v[1:])
    return _proposed(np.arange(n_pairs)[:, None], parity) & (u < alpha)


def update_index_process(index, accepts):
    """Slots of every machine after one swap round with ``accepts``.

    ``index`` (N+1, R) holds the slot of each machine; the machine in slot
    n moves to slot_map(accepts)[n].
    """
    return _gather(slot_map(accepts), _slot_rows(index))


def _slot_rows(slots):
    """Rows of entries [slots[n, i], i] in an (N+1, R, ...) array viewed as
    ((N+1)*R, ...) rows, so that taking them (``_gather``) is
    a[slots, arange(R)] in one flat gather."""
    r = slots.shape[1]
    # intp first: int16 slots times R would overflow in int16
    rows = slots.astype(np.intp, copy=False) * r
    rows += np.arange(r)
    return rows


def _gather(a, rows):
    """a[slots, arange(R)] for the rows ``_slot_rows(slots)``."""
    return a.reshape((-1,) + a.shape[2:]).take(rows, axis=0)


def run_pt(config, model, explorer, init_states=None):
    """Run parallel tempering (Algorithm: explore, then communicate).

    Parameters
    ----------
    config : PTConfig
    model : TargetModel; it must expose ``sample_reference``, which draws
        chain 0 afresh every iteration.
    explorer : kernel for chains 1..N, called as
        ``explorer.step(states[1:], betas[1:], rngs)`` with chain c on
        the stream keyed (c, 0).  An explorer whose class sets
        ``renews = True`` (see ``explorers``) is called once per block of
        b iterations with (N, b*R) columns; any other once per iteration.
    init_states : array of shape (N+1, R, ...) or a list of per-chain
        arrays with leading axis R, or None to initialize every chain from
        the reference sampler.

    Returns
    -------
    PTTrace

    Notes
    -----
    When the explorer renews its state, iteration t's draws and swap
    decisions do not depend on earlier iterations, so a block of b
    iterations runs as one iteration over b*R columns, column
    (t - t0)*R + i being replica i at iteration t: one reference and one
    explorer call, one energy call, one swap round and one slot map.  All
    draws are made replica by replica (see ``rng``), so the trace does not
    depend on b, which is max(1, BLOCK_BYTES // (8*(N+1)*R)): BLOCK_BYTES
    is 512 KiB, so b*(N+1)*R states take about 512 KiB of float64.
    """
    reference = IIDReferenceExplorer(model)
    betas = config.schedule.betas
    n = config.schedule.n_intervals
    n_chains = n + 1
    t_iters, r = config.n_iters, config.n_replicas

    explore_rngs = [make_stream(config.seed, c, 0) for c in range(n_chains)]
    comm_rng = make_stream(config.seed, n_chains, 0)
    parity_rng = make_stream(config.seed, n_chains + 1, 0)

    if init_states is None:
        init_states = [model.sample_reference(g, r) for g in explore_rngs]
    states = np.stack(init_states)
    if states.shape[0] != n_chains:
        raise ValueError("init_states must have one entry per chain")
    site_shape = states.shape[2:]

    if config.scheme == NRPT:
        parities = np.broadcast_to(
            (np.arange(t_iters + 1) % 2).astype(np.int8)[:, None],
            (t_iters + 1, r))
    else:
        parities = parity_rng.integers(0, 2, size=(t_iters + 1, r)).astype(np.int8)

    accept_bits = np.zeros((t_iters, n, -(-r // 8)), dtype=np.uint8)
    energies = np.zeros((t_iters, n_chains, r)) if config.record_energies else None
    target_states = (np.zeros((t_iters, r) + site_shape, dtype=states.dtype)
                     if config.record_target_states else None)

    block = 1
    if getattr(explorer, "renews", False):
        block = max(1, BLOCK_BYTES // (8 * n_chains * r))

    for t0 in range(0, t_iters, block):
        t1 = min(t0 + block, t_iters)
        b = t1 - t0
        # a renewing explorer ignores its input's values, so a block of
        # several iterations starts from an empty array
        x = states if b == 1 else np.empty((n_chains, b * r) + site_shape,
                                           dtype=states.dtype)
        # same_kind: an explorer returning floats into integer states raises
        np.copyto(x[:1], reference.step(x[:1], betas[:1], explore_rngs[:1]),
                  casting="same_kind")
        np.copyto(x[1:], explorer.step(x[1:], betas[1:], explore_rngs[1:]),
                  casting="same_kind")
        v = energy(model, x)
        acc = communication_step(v, config.schedule,
                                 parities[t0:t1].reshape(b * r), comm_rng)
        accept_bits[t0:t1] = np.packbits(acc.reshape(n, b, r).swapaxes(0, 1),
                                         axis=-1, bitorder="little")
        rows = _slot_rows(slot_map(acc))
        if energies is not None:
            energies[t0:t1] = _gather(v, rows).reshape(
                n_chains, b, r).swapaxes(0, 1)
        if target_states is not None:
            target_states[t0:t1] = _gather(x, rows[n]).reshape(
                (b, r) + site_shape)
        states = _gather(x, rows[:, -r:])
        # drop the block's arrays before the next block makes its own
        del x, v, acc, rows

    return PTTrace(
        scheme=config.scheme,
        betas=betas,
        parities=parities,
        accept_bits=accept_bits,
        energies=energies,
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
    if not 0.0 <= burn_in < 1.0:
        raise ValueError(f"burn_in must lie in [0, 1), got {burn_in!r}")
    t0 = int(np.floor(burn_in * trace.n_iters))
    # a pair is proposed in every round of its parity; parities are 0 or 1
    parities = trace.parities[t0:trace.n_iters]
    n_odd = np.count_nonzero(parities)
    prop_counts = np.where(_proposed(np.arange(trace.n_intervals), 1),
                           n_odd, parities.size - n_odd)
    # indexing, not take, which would first copy the bytes to intp; int,
    # the count dtype of a bool sum
    acc_counts = _POPCOUNT[trace.accept_bits[t0:]].sum(axis=(0, 2),
                                                       dtype=int)
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
