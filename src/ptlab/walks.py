"""Monte Carlo simulators for the four hitting-time processes.

Each simulator draws a batch of independent traversal times: the index
walk on the engine's swap rule (a persistent walk under non-reversible
communication, a lazy reflected walk under reversible communication), the
continuum persistent walk (a piecewise deterministic process on [0,1]
with direction flips at rate Lambda), and reflected Brownian motion on
[0,1].  Batches are vectorized over replicas with masked updates of the
still-alive subset.  Reflected Brownian motion moves in exact leaps of
variance at most LEAP_VAR, so its cost per unit of time does not grow as
dt shrinks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .engine import NRPT, _check_walk, _proposed
from .rng import make_stream

# replicates per survival_curve block; each block has its own stream
CHUNK = 200_000
# rounds after which sim_index_walk raises RuntimeError
STEP_CAP = 10_000_000
# largest variance of one leap of sim_reflected_bm: its sd is at most 0.1
LEAP_VAR = 0.01


def sim_index_walk(scheme, n, r, rng, size=1):
    """Hitting times of slot n from slot 0 by the index walk, whose exact
    tail is ``bounds.hitting_tail(scheme, n, r, t)``; the state is the slot.

    NRPT: round t has parity (t - 1) % 2, even first; the walker tries pair
    (s, s+1) where the engine's ``_proposed(s, parity)`` holds, else pair
    (s-1, s) (none at slot 0), and moves with probability 1 - r: the
    persistent walk.  RPT: it moves by the average of the two parity
    rounds, up or down with probability (1-r)/2 each, held at 0: the lazy
    reflected walk.  ``r`` is one common rate, checked as hitting_tail
    checks it.  Each round draws one float32 uniform per live walker.
    """
    if np.ndim(r):
        raise ValueError("sim_index_walk takes one common rejection rate r")
    scheme, _ = _check_walk(scheme, n, r)
    # live arrays stay compacted; ids maps them back to the output
    ids = np.arange(size)
    pos = np.zeros(size, dtype=np.int32)
    times = np.zeros(size, dtype=np.int64)
    accept = np.float32(1.0 - r)
    half = np.float32((1.0 - r) / 2.0)
    hi = np.float32(1.0 - half)
    t = 0
    while ids.size:
        t += 1
        if t > STEP_CAP:
            raise RuntimeError("walk exceeded step cap")
        u = rng.random(ids.size, dtype=np.float32)
        if scheme == NRPT:
            move = u < accept
            up = _proposed(pos, (t - 1) % 2) & move
            pos += up
            pos -= move ^ up
        else:
            pos += u < half
            pos -= u >= hi
        # slot 0 has no pair below it
        np.maximum(pos, 0, out=pos)
        hit = pos == n
        if hit.any():
            times[ids[hit]] = t
            keep = ~hit
            ids, pos = ids[keep], pos[keep]
    return times


def sim_pdmp(lam, rng, size=1):
    """Traversal times of the continuum persistent walk on [0, 1].

    Unit speed, direction flips at exponential rate lam, reflection at 0,
    absorption on arrival at 1.  Simulated exactly event-by-event (no
    discretization error).  lam = 0 gives exactly 1.0.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and non-negative, got {lam!r}")
    pos = np.zeros(size)
    direction = np.ones(size)
    times = np.zeros(size)
    alive = np.ones(size, dtype=bool)
    while alive.any():
        idx = np.flatnonzero(alive)
        if lam == 0.0:
            times[idx] += 1.0 - pos[idx]
            alive[idx] = False
            break
        flip = rng.exponential(1.0 / lam, idx.size)
        d = direction[idx]
        dist = np.where(d > 0, 1.0 - pos[idx], pos[idx])
        reaches = flip >= dist
        # reaches upper boundary -> absorbed; lower boundary -> reflect
        up = reaches & (d > 0)
        down = reaches & (d < 0)
        mid = ~reaches
        times[idx] += np.where(reaches, dist, flip)
        sub = idx[up]
        alive[sub] = False
        sub = idx[down]
        pos[sub] = 0.0
        direction[sub] = 1.0
        sub = idx[mid]
        pos[sub] = pos[sub] + direction[sub] * flip[mid]
        direction[sub] = -direction[sub]
    return times


def max_leap(dt):
    """Steps K per leap of sim_reflected_bm at step size dt: the most whose
    variance K dt is at most LEAP_VAR, and at least one."""
    return max(1, math.floor(LEAP_VAR / dt))


def passage_ratio(rng, a, g, h):
    """Draws of V = tau / (h - tau) for passages to 1 inside a leap of length h.

    A leap that starts a = 1 - x below 1, ends g = |1 - x'| from it and
    passes 1 has its passage time tau distributed, given its ends, with
    density f_a(s) phi_{h-s}(g) / phi_h(a + g), where f_a is the Brownian
    first-passage density to distance a and phi_s the N(0, s) density.
    Then V is inverse Gaussian with mean a / g and shape lam = a^2 / h, and
    Levy with scale lam when g = 0.  V is drawn as Michael, Schucany & Haas
    (1976, Am. Stat. 30:88) do, with q = N^2 and w = g / a:
    X = 2 lam / (q + 2 lam w + sqrt(q^2 + 4 lam q w)) is kept with
    probability 1 / (1 + w X) and replaced by 1 / (w^2 X) otherwise, which
    never happens when w = 0.  (numpy's Generator.wald takes the mean a / g,
    which is infinite at g = 0.)  Takes float64 arrays a > 0, g >= 0 and a
    float h > 0; draws one float64 normal per entry, then one float64
    uniform per entry.
    """
    lam = np.square(a) / h
    w = g / a
    q = np.square(rng.standard_normal(a.size))
    lw = 2.0 * lam * w
    v = 2.0 * lam / (q + lw + np.sqrt(q * (q + 2.0 * lw)))
    flip = rng.random(a.size) * (1.0 + w * v) >= 1.0
    v[flip] = 1.0 / (np.square(w[flip]) * v[flip])
    return v


def sim_reflected_bm(rng, size=1, dt=1e-4, t_max=10.0):
    """First-passage times to 1 of reflected Brownian motion from 0.

    The step size sets the time grid, not a bias.  Every round each live
    replica takes the same k = min(K, steps left) steps at once, K =
    max_leap(dt), so a leap of length h = k dt has standard deviation at
    most 0.1 when dt <= LEAP_VAR, and every round is one step when
    dt > LEAP_VAR / 2.  A leap folds a Gaussian increment, x' =
    |x + sqrt(h) Z|; since |W| is Brownian motion reflected at 0, this is
    its exact transition.  A replica passes 1 in the leap if x' >= 1, or
    else with the bridge probability exp(-2(1-x)(1-x')/h) of a path from x
    to x' crossing 1.  A passage in a leap of k > 1 steps gets its time tau
    from the exact law given the leap's ends (see passage_ratio), and it is
    reported in step c = ceil(tau / dt), clipped to [1, k].  Each passage
    is reported as the midpoint of its step, (steps before the leap + c -
    1/2) dt, so Pr(tau > t) counts exactly the passages after step j for
    any t within dt/2 of j dt, free of float rounding of j dt.

    Per leap the draws leave out passages through -1, of probability at
    most 2 P(Z >= 1/sqrt(h)) (< 1.6e-23 when h <= 0.01), and the fold of
    the bridge: its probability is taken at the folded end x', not at the
    Gaussian end, which moves the chance of a passage by at most
    exp(-1/(2h)) (<= exp(-50) when h <= 0.01).  Survival at multiples of
    dt is therefore exact up to those terms and float32 rounding.

    Draws per round: one float32 normal per live replica, then one float64
    uniform per live replica with x' < 1, then, when k > 1, one float64
    normal and one float64 uniform per passing replica (passage_ratio).
    Trajectories still alive at t_max are reported as +inf.  Needs
    0 < dt <= t_max < inf, so that at least one and finitely many steps
    are taken.
    """
    if not 0.0 < dt <= t_max < np.inf:
        raise ValueError(f"need 0 < dt <= t_max < inf, got dt={dt!r}, "
                         f"t_max={t_max!r}")
    n_steps = int(round(t_max / dt))
    big_k = max_leap(dt)
    done = 0
    x = np.zeros(size, dtype=np.float32)
    times = np.full(size, np.inf)
    alive_idx = np.arange(size)
    while alive_idx.size and done < n_steps:
        k = min(big_k, n_steps - done)
        h = k * dt
        z = rng.standard_normal(alive_idx.size, dtype=np.float32)
        x_new = np.abs(x + np.float32(np.sqrt(h)) * z)
        hit = x_new >= 1.0
        sub = np.flatnonzero(~hit)
        if sub.size:
            # a leap below float32's smallest number divides by 0 and gets
            # p = 0, its limit
            with np.errstate(divide="ignore"):
                p = np.exp(-2.0 * (1.0 - x[sub]) * (1.0 - x_new[sub])
                           / np.float32(h))
            hit[sub] = rng.random(sub.size) < p
        if hit.any():
            step = 1.0
            if k > 1:
                v = passage_ratio(rng, 1.0 - x[hit].astype(np.float64),
                                  np.abs(1.0 - x_new[hit].astype(np.float64)),
                                  h)
                step = np.clip(np.ceil(k * v / (1.0 + v)), 1.0, k)
            times[alive_idx[hit]] = (done + step - 0.5) * dt
            keep = ~hit
            alive_idx, x = alive_idx[keep], x_new[keep]
        else:
            x = x_new
        done += k
    return times


@dataclass(frozen=True)
class SurvivalCurve:
    """Empirical Pr(tau > t) on a time grid with binomial standard errors."""

    t_grid: np.ndarray
    survival: np.ndarray
    stderr: np.ndarray
    n_rep: int


def survival_curve(simulator, t_grid, n_rep, seed):
    """Estimate a survival curve from a batch simulator.

    Parameters
    ----------
    simulator : callable
        (rng, size) -> array of hitting times.
    t_grid : array
        Times at which Pr(tau > t) is evaluated.
    n_rep : int
        Total number of replicates (>= 100).
    seed : int
        Master seed; replicates are simulated in blocks of CHUNK, each
        from its own stream keyed by block index, so the seed alone
        determines the curve.
    """
    if n_rep < 100:
        raise ValueError("need at least 100 replicates")
    t_grid = np.asarray(t_grid, dtype=float)
    counts = np.zeros(t_grid.size, dtype=np.int64)
    done = 0
    block = 0
    while done < n_rep:
        m = min(CHUNK, n_rep - done)
        rng = make_stream(seed, 0, block)
        samples = np.sort(np.asarray(simulator(rng, m), dtype=float))
        # number of samples strictly greater than each grid time
        counts += m - np.searchsorted(samples, t_grid, side="right")
        done += m
        block += 1
    surv = counts / n_rep
    se = np.sqrt(np.maximum(surv * (1.0 - surv), 0.0) / n_rep)
    return SurvivalCurve(t_grid=t_grid, survival=surv, stderr=se, n_rep=n_rep)
