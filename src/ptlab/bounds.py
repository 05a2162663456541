"""Exact hitting-time tails and total-variation bounds for finite chains,
coarse closed-form bounds, and the exact tails of the infinite-chain limits.

The index walk that carries a reference sample to the target chain is a
persistent random walk under deterministic even/odd (DEO, non-reversible)
communication and a lazy reflected random walk under stochastic even/odd
(SEO, reversible) communication.  Both have exact survival functions,
computed by pushing the machine's slot distribution through the engine's
own swap rounds, one round at a time; ``walks.sim_index_walk`` moves one
machine by the same rounds.

With N r = Lambda held fixed, the DEO walk in time t N tends to the
continuum persistent walk, whose tail is the Bromwich inversion of its
Laplace transform (``laplace``), and the SEO walk in time t N^2 tends to
reflected Brownian motion, whose tail is a series.
"""

import numpy as np
from scipy.special import ndtr

from .engine import NRPT, RPT, _check_walk, _proposed
from .laplace import _bromwich


def hitting_tail(scheme, n, r, t):
    """Exact Pr(tau_N > t) for integer t (scalar or array).

    The machine starts in slot 0 and tau_N is the round in which it first
    reaches slot N.  Pair n is proposed at parity p where the engine's
    ``_proposed(n, p)`` holds, and is accepted with probability 1 - r_n;
    ``r`` is one rate or one per pair.  Each round moves slot mass across
    the proposed pairs: NRPT alternates the parities, even first, and RPT
    applies the average of the two rounds.  Mass reaching slot N is
    counted and removed.  Cost O(t_max * N).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if np.any(t_arr < 0):
        raise ValueError("t must be non-negative")
    scheme, r = _check_walk(scheme, n, r)
    pairs = np.arange(n)
    accept = [np.where(_proposed(pairs, p), 1.0 - r, 0.0) for p in (0, 1)]
    if scheme == RPT:
        accept = [0.5 * (accept[0] + accept[1])]
    v = np.zeros(n + 1)
    v[0] = 1.0
    t_max = int(t_arr.max())
    hit = np.zeros(t_max + 1)
    for step in range(1, t_max + 1):
        a = accept[(step - 1) % len(accept)]
        flow = a * (v[:-1] - v[1:])
        v[:-1] -= flow
        v[1:] += flow
        hit[step] = hit[step - 1] + v[-1]
        v[-1] = 0.0
    out = np.clip(1.0 - hit[t_arr], 0.0, 1.0)
    out[out < 1e-300] = 0.0
    return out if np.ndim(t) else float(out[0])


def tv_bound_finite(scheme, n, r, t):
    """TV bound for the target-chain marginal after t iterations.

    Equals the exact survival probability at t-1 (valid for t >= 1).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if np.any(t_arr < 1):
        raise ValueError("t must be >= 1")
    out = hitting_tail(scheme, n, r, t_arr - 1)
    return out if np.ndim(t) else float(out[0])


def coarse_bound(scheme, n, r, t):
    """Closed-form survival bound.

    DEO: [1 - (1-r)^{2N}]^{floor(t / (2N+1))};
    SEO: [1 - ((1-r)/2)^N]^{floor(t / N)}.

    Both assume one common rejection rate, so ``r`` must be a scalar.
    """
    if np.ndim(r):
        raise ValueError("coarse_bound takes one common rejection rate r")
    scheme, _ = _check_walk(scheme, n, r)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be non-negative")
    if scheme == NRPT:
        base = 1.0 - (1.0 - r) ** (2 * n)
        block = 2 * n + 1
    else:
        base = 1.0 - ((1.0 - r) / 2.0) ** n
        block = n
    out = base ** np.floor(t_arr / block)
    return out if np.ndim(t) else float(out)


def _check_continuum(lam, t, lam_min=0.0):
    """Times ``t`` as a float array, once Lambda is finite and at least
    ``lam_min`` and every t is finite and non-negative."""
    if not lam_min <= lam < np.inf:
        raise ValueError(f"lam must be finite and >= {lam_min:g}, "
                         f"got {lam!r}")
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr) & (t_arr >= 0)):
        raise ValueError("t must be finite and non-negative")
    return t_arr


def pdmp_loose_bound(lam, t):
    """Loose survival bound (1 - e^{-2 Lambda})^{floor(t/2)} for the
    continuum persistent walk."""
    t_arr = _check_continuum(lam, t)
    out = (1.0 - np.exp(-2.0 * lam)) ** np.floor(t_arr / 2.0)
    return out if np.ndim(t) else float(out)


def nrpt_infinite_bound(lam, t):
    """Infinite-chain bound 106 * exp(-(t-1)/(Lambda+2)), clamped to [0, 1].

    Valid for Lambda >= 1, where 106 is the universal constant.
    """
    t_arr = _check_continuum(lam, t, lam_min=1.0)
    out = np.minimum(1.0, 106.0 * np.exp(-(t_arr - 1.0) / (lam + 2.0)))
    return out if np.ndim(t) else float(out)


def nrpt_infinite_tail(lam, t):
    """Exact Pr(tau > t) for the traversal time of the continuum persistent
    walk (``walks.sim_pdmp``), the scaling limit of the NRPT index walk.

    tau >= 1, with an atom of mass e^{-Lambda} at 1: the walks that cross
    without a flip.  Beyond 1, s -> Pr(tau > 1 + s) is the Bromwich
    inversion of ``laplace.eval_F`` along estimate_C's contour
    Re(z) = a = -1/(Lambda+2) with its 4e-3 budget, e^{a s} C(Lambda, s).
    Any finite Lambda >= 0 is taken; Lambda = 0 gives the step at 1.
    """
    t_arr = np.atleast_1d(_check_continuum(lam, t))
    out = np.where(t_arr < 1.0, 1.0, 1.0 - np.exp(-lam))
    late = t_arr > 1.0
    if np.any(late):
        a = -1.0 / (lam + 2.0)
        s = t_arr[late] - 1.0
        out[late] = np.exp(a * s) * _bromwich(lam, s, a, 4e-3)
    out = np.clip(out, 0.0, 1.0)
    return out if np.ndim(t) else float(out[0])


def rpt_infinite_tail(t):
    """Survival function of the reflected-Brownian traversal time.

    Pr(tau > t) = (4/pi) sum_{j>=0} (-1)^j/(2j+1) exp(-(2j+1)^2 pi^2 t / 8),
    summed over its first 200 terms.  For small t the alternating series
    converges slowly, so the equivalent method-of-images form in terms of
    Gaussian CDFs is used instead; the two agree to ~1e-9 in the crossover
    region.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise ValueError("t must be non-negative")
    out = np.empty_like(t_arr)
    small = t_arr < 0.3
    if np.any(small):
        ts = t_arr[small]
        sqt = np.sqrt(np.maximum(ts, 1e-300))  # t = 0 yields the exact value 1
        val = np.zeros_like(ts)
        n_img = 8
        for k in range(-n_img, n_img + 1):
            val += (-1) ** k * (ndtr((2 * k + 1) / sqt) - ndtr((2 * k - 1) / sqt))
        out[small] = val
    if np.any(~small):
        ts = t_arr[~small]
        js = np.arange(200)
        terms = ((-1.0) ** js / (2 * js + 1))[None, :] * np.exp(
            -((2 * js + 1) ** 2)[None, :] * np.pi**2 * ts[:, None] / 8.0
        )
        out[~small] = (4.0 / np.pi) * terms.sum(axis=1)
    out = np.clip(out, 0.0, 1.0)
    return out if np.ndim(t) else float(out[0])


def rpt_infinite_bound(t):
    """Closed-form dominating bound 2 exp(-pi^2 t / 8) (valid for t >= 1)."""
    t_arr = np.asarray(t, dtype=float)
    out = 2.0 * np.exp(-np.pi**2 * t_arr / 8.0)
    return out if np.ndim(t) else float(out)

