"""Exact hitting-time tails and total-variation bounds for finite chains,
coarse closed-form bounds, and infinite-chain limits.

The index walk that carries a reference sample to the target chain is a
persistent random walk under deterministic even/odd (DEO, non-reversible)
communication and a lazy reflected random walk under stochastic even/odd
(SEO, reversible) communication.  Both have exact survival functions
computable by repeated sparse matrix-vector products with an absorbing
transition matrix.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import ndtr

from .engine import NRPT, RPT


@dataclass(frozen=True)
class SparseTransition:
    """Absorbing transition matrix of the index walk for one (scheme, N, r)."""

    scheme: str
    n: int
    r: float
    matrix: sp.csr_matrix  # row-stochastic
    start: int             # state occupied at t = 0
    absorbing: int         # state whose mass gives Pr(tau <= t)


def _check_scheme(scheme):
    s = scheme.lower()
    if s not in (NRPT, RPT):
        raise ValueError(f"unknown scheme {scheme!r}")
    return s


def build_transition(scheme, n, r):
    """Build the absorbing transition matrix for the index walk.

    DEO gives a (2N+2) x (2N+2) persistent-walk matrix whose states track
    (position, direction) with an absorbing target state; SEO gives an
    (N+1) x (N+1) lazy walk with a sticky lower boundary.  r is the common
    per-swap rejection probability.
    """
    scheme = _check_scheme(scheme)
    if n < 1:
        raise ValueError("need at least one interval (n >= 1)")
    if not 0.0 <= r < 1.0:
        raise ValueError("rejection rate r must lie in [0, 1)")
    rows, cols, vals = [], [], []
    if scheme == NRPT:
        d = 2 * n + 2
        rows += [0]
        cols += [0]
        vals += [1.0]
        for k in range(1, n + 1):
            # two direction states per interior position
            rows += [2 * k - 1, 2 * k - 1]
            cols += [2 * k - 2, 2 * k + 1]
            vals += [r, 1.0 - r]
            rows += [2 * k, 2 * k]
            cols += [2 * k + 1, 2 * k - 2]
            vals += [r, 1.0 - r]
        rows += [2 * n + 1]
        cols += [2 * n]
        vals += [1.0]
        start, absorbing = 2 * n, 0
    else:
        d = n + 1
        rows += [0]
        cols += [0]
        vals += [1.0]
        for i in range(1, n):
            rows += [i, i, i]
            cols += [i - 1, i, i + 1]
            vals += [(1.0 - r) / 2.0, r, (1.0 - r) / 2.0]
        rows += [n, n]
        cols += [n - 1, n]
        vals += [(1.0 - r) / 2.0, (1.0 + r) / 2.0]
        start, absorbing = n, 0
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(d, d))
    return SparseTransition(scheme=scheme, n=n, r=float(r), matrix=mat,
                            start=start, absorbing=absorbing)


def hitting_tail(scheme, n, r, t):
    """Exact Pr(tau_N > t) for integer t (scalar or array).

    Computed by iterating the start row vector through the sparse matrix,
    never forming dense powers; cost O(t_max * N).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if np.any(t_arr < 0):
        raise ValueError("t must be non-negative")
    trans = build_transition(scheme, n, r)
    at = trans.matrix
    v = np.zeros(at.shape[0])
    v[trans.start] = 1.0
    t_max = int(t_arr.max())
    tails = np.empty(t_max + 1)
    tails[0] = 1.0 - v[trans.absorbing]
    for step in range(1, t_max + 1):
        v = at.T @ v
        tails[step] = 1.0 - v[trans.absorbing]
    out = np.clip(tails[t_arr], 0.0, 1.0)
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
    """
    scheme = _check_scheme(scheme)
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


def pdmp_loose_bound(lam, t):
    """Loose survival bound (1 - e^{-2 Lambda})^{floor(t/2)} for the
    continuum persistent walk."""
    if lam < 0:
        raise ValueError("lam must be non-negative")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be non-negative")
    out = (1.0 - np.exp(-2.0 * lam)) ** np.floor(t_arr / 2.0)
    return out if np.ndim(t) else float(out)


def nrpt_infinite_bound(lam, t):
    """Infinite-chain bound 106 * exp(-(t-1)/(Lambda+2)), clamped to [0, 1].

    Valid for Lambda >= 1, where 106 is the universal constant.
    """
    if lam < 1.0:
        raise ValueError("bound requires lam >= 1")
    t_arr = np.asarray(t, dtype=float)
    out = np.minimum(1.0, 106.0 * np.exp(-(t_arr - 1.0) / (lam + 2.0)))
    return out if np.ndim(t) else float(out)


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

