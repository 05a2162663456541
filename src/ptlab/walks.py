"""Monte Carlo simulators for the four hitting-time processes.

Each simulator draws a batch of independent traversal times: the discrete
persistent walk (non-reversible communication), the lazy reflected walk
(reversible communication), the continuum persistent walk (a piecewise
deterministic process on [0,1] with direction flips at rate Lambda), and
reflected Brownian motion on [0,1].  Batches are vectorized over replicas
with masked updates of the still-alive subset.
"""

from dataclasses import dataclass

import numpy as np

from .rng import make_stream

# replicates per survival_curve block; each block has its own stream
CHUNK = 200_000
# steps after which the discrete walks raise RuntimeError
STEP_CAP = 10_000_000


def sim_persistent_walk(n, r, rng, size=1):
    """Hitting times of the persistent walk from (0, +1) to (N, +1).

    Each step the walker at an interior state moves one unit in its current
    direction with probability 1-r, otherwise it stays and flips direction.
    The state (0, -1) spends one deterministic step turning around.  The
    walk is absorbed on arrival at position N (necessarily moving upward).
    """
    if n < 1 or not 0.0 <= r < 1.0:
        raise ValueError("need n >= 1 and r in [0, 1)")
    # live arrays stay compacted; ids maps live slots back to output slots
    ids = np.arange(size)
    pos = np.zeros(size, dtype=np.int32)
    eps = np.ones(size, dtype=np.int32)
    times = np.zeros(size, dtype=np.int64)
    q = np.float32(1.0 - r)
    t = 0
    while ids.size:
        t += 1
        if t > STEP_CAP:
            raise RuntimeError("walk exceeded step cap")
        turning = (pos == 0) & (eps == -1)
        move = rng.random(ids.size, dtype=np.float32) < q
        move &= ~turning
        pos += np.where(move, eps, 0)
        np.copyto(eps, np.where(move, eps, -eps))
        eps[turning] = 1
        hit = pos == n
        if hit.any():
            times[ids[hit]] = t
            keep = ~hit
            ids, pos, eps = ids[keep], pos[keep], eps[keep]
    return times


def sim_seo_walk(n, r, rng, size=1):
    """Hitting times of the lazy reflected walk from 0 to N.

    Each step the walker moves +-1 with probability (1-r)/2 each and holds
    with probability r; a downward move at 0 is a hold, so the boundary
    holds with total probability (1+r)/2.
    """
    if n < 1 or not 0.0 <= r < 1.0:
        raise ValueError("need n >= 1 and r in [0, 1)")
    ids = np.arange(size)
    pos = np.zeros(size, dtype=np.int32)
    times = np.zeros(size, dtype=np.int64)
    half = np.float32((1.0 - r) / 2.0)
    hi = np.float32(1.0 - half)
    t = 0
    while ids.size:
        t += 1
        if t > STEP_CAP:
            raise RuntimeError("walk exceeded step cap")
        u = rng.random(ids.size, dtype=np.float32)
        pos += u < half
        pos -= u >= hi
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


def leap_steps(x, sdt, left):
    """Steps each live replica of sim_reflected_bm takes in one round.

    One step inside the bridge-tested fringe, within 20 step widths sdt of
    the boundary.  Beyond it, the largest k whose leap standard deviation
    sqrt(k) sdt is at most a tenth of the distance d = 1 - x, so that
    100 k dt <= d^2; the factor 1 - 1e-6 keeps float32 rounding from
    raising k past that.  No replica goes beyond the `left` steps it has
    before t_max.  Returns float64 step counts.
    """
    c = np.float32(0.1 * (1.0 - 1e-6)) / sdt
    k = np.where(x < 1.0 - 20.0 * sdt, np.floor(np.square((1.0 - x) * c)),
                 np.float32(1.0))
    return np.minimum(k, left)


def sim_reflected_bm(rng, size=1, dt=1e-4, t_max=10.0):
    """First-passage times to 1 of reflected Brownian motion from 0.

    The step size sets the time grid, not a bias.  Each round a replica
    takes k steps at once (see leap_steps): one step within 20 step widths
    of 1, otherwise up to (d / (10 sqrt(dt)))^2 steps at distance d from 1.
    A leap folds a Gaussian increment of variance k dt, x' =
    |x + sqrt(k dt) Z|; since |W| is Brownian motion reflected at 0, this
    is its exact transition.  Given the endpoints of a single step, the path
    crosses 1 within it with the bridge probability exp(-2(1-x)(1-x')/dt),
    which is drawn whenever both endpoints lie within the fringe.  What
    the draws leave out has probability, per step, below exp(-1/(2 dt)) for
    bridges that reach -1 or paths that reach 1 and fall below 0, and below
    1e-22 for the fringe cut, which needs a jump of 10 step widths; per
    leap, a passage needs a move of 10 leap standard deviations up to 1 or
    down to -1, which has probability at most 4 P(Z >= 10) < 3.1e-23.  A
    passage in step k is reported as the step's midpoint (k - 1/2) dt, so
    Pr(tau > t) counts exactly the passages after step k for any t within
    dt/2 of k dt, free of float rounding of k dt.  Survival at multiples of
    dt is therefore exact up to those terms and float32 rounding.  When
    dt >= 1/400 the fringe covers [0, 1] and every round is one step.
    Trajectories still alive at t_max are reported as +inf.  Needs
    0 < dt <= t_max < inf, so that at least one and finitely many steps
    are taken.
    """
    if not 0.0 < dt <= t_max < np.inf:
        raise ValueError(f"need 0 < dt <= t_max < inf, got dt={dt!r}, "
                         f"t_max={t_max!r}")
    sdt = np.float32(np.sqrt(dt))
    # bridge probabilities underflow unless both endpoints of a step sit
    # within a few step widths of the boundary, so only that fringe is tested
    edge = 1.0 - 20.0 * sdt
    n_steps = int(round(t_max / dt))
    x = np.zeros(size, dtype=np.float32)
    left = np.full(size, float(n_steps))
    times = np.full(size, np.inf)
    alive_idx = np.arange(size)
    while alive_idx.size:
        k = leap_steps(x, sdt, left)
        z = rng.standard_normal(alive_idx.size, dtype=np.float32)
        x_new = np.abs(x + (np.sqrt(k) * sdt).astype(np.float32) * z)
        hit = x_new >= 1.0
        sub = np.flatnonzero(~hit & (x_new > edge) & (x > edge))
        if sub.size:
            p = np.exp(-2.0 * (1.0 - x[sub]) * (1.0 - x_new[sub]) / np.float32(dt))
            hit[sub] = rng.random(sub.size) < p
        left -= k
        done = hit | (left == 0.0)
        if done.any():
            times[alive_idx[hit]] = (n_steps - left[hit] - 0.5) * dt
            keep = ~done
            alive_idx, x, left = alive_idx[keep], x_new[keep], left[keep]
        else:
            x = x_new
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
