"""Run diagnostics: energy renewal checks, empirical total variation,
asymptotic variance, and batch-mean normality.  Statistics only; the CLI
reads and writes the files.
"""

import numpy as np
from scipy.special import log_ndtr


def lag1_energy_autocorr(v_trace, burn_in=0.2):
    """Lag-one Pearson autocorrelation of an energy series.

    Under idealized exploration the energies renew i.i.d., so the value
    should sit within ~3/sqrt(T) of zero.  Raises on non-finite values
    after burn-in and on constant traces, where the correlation is
    undefined.
    """
    if not 0.0 <= burn_in < 1.0:
        raise ValueError(f"burn_in must lie in [0, 1), got {burn_in!r}")
    v = np.asarray(v_trace, dtype=float)
    t0 = int(np.floor(burn_in * v.size))
    v = v[t0:]
    if v.size < 30:
        raise ValueError("need at least 30 post-burn-in points")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite energy after burn-in")
    if np.var(v) == 0.0:
        raise ValueError("constant energy trace: correlation undefined")
    return float(np.corrcoef(v[:-1], v[1:])[0, 1])


def empirical_tv_discrete(codes, exact):
    """(1/2) sum_s |phat(s) - p(s)| between sample codes and an exact table.

    Returns (tv, noise_floor) where the floor approximates the expected TV
    of exact samples of the same size: each state contributes the
    half-normal mean deviation sqrt(2 p (1-p) / (pi n)), capped at 2p for
    states too rare to be observed.  Estimates below the floor are
    noise-dominated.
    """
    p = np.asarray(exact.probs, dtype=float)
    codes = np.asarray(codes).ravel()
    counts = np.bincount(codes, minlength=p.size).astype(float)
    phat = counts / codes.size
    tv = 0.5 * np.abs(phat - p).sum()
    n = codes.size
    per_state = np.minimum(np.sqrt(2.0 * p * (1.0 - p) / (np.pi * n)), 2.0 * p)
    floor = 0.5 * per_state.sum()
    return float(tv), float(floor)


def asymptotic_variance(f_trace):
    """Batch-means estimate of the long-run variance of a centered series.

    Uses ~sqrt(T) batches of size ~sqrt(T); returns sigma^2 such that
    sqrt(T) * mean(f) is approximately N(0, sigma^2).
    """
    f = np.asarray(f_trace, dtype=float)
    t = f.size
    if t < 1000:
        raise ValueError("need at least 1000 points for batch means")
    b = int(np.floor(np.sqrt(t)))
    n_batches = t // b
    if n_batches < 10:
        raise ValueError("too few batches")
    trimmed = f[: n_batches * b].reshape(n_batches, b)
    means = trimmed.mean(axis=1)
    return float(b * np.var(means, ddof=1))


# Stephens (1974) critical values of A^2 for the normal with estimated mean
# and variance, at these significance levels; the table scipy.stats.anderson
# uses.  AD_LEVELS are the levels batch_mean_normality accepts.
AD_LEVELS = np.array([0.15, 0.10, 0.05, 0.025, 0.01])
_AD_NORM_CRIT = np.array([0.561, 0.631, 0.752, 0.873, 1.035])


def batch_mean_normality(standardized_stats, level=0.01):
    """Anderson-Darling normality check of standardized run statistics.

    A^2 is computed against the normal with the sample mean and ddof=1
    standard deviation.  `level` must be one of the tabulated significance
    levels 0.15, 0.10, 0.05, 0.025 or 0.01; any other raises ValueError.
    Returns (passed, statistic, critical value at `level`).
    """
    if level not in AD_LEVELS:
        raise ValueError(f"level must be one of {AD_LEVELS.tolist()}, "
                         f"got {level!r}")
    z = np.asarray(standardized_stats, dtype=float)
    n = z.size
    w = (np.sort(z) - z.mean()) / z.std(ddof=1)
    i = np.arange(1, n + 1)
    # log(1 - Phi(w)) = log Phi(-w)
    a2 = float(-n - np.sum((2 * i - 1.0) / n
                           * (log_ndtr(w) + log_ndtr(-w[::-1]))))
    crits = np.around(_AD_NORM_CRIT / (1.0 + 0.75 / n + 2.25 / n / n), 3)
    crit = float(crits[AD_LEVELS == level][0])
    return bool(a2 < crit), a2, crit
