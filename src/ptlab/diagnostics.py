"""Run diagnostics: energy renewal checks, empirical total variation,
asymptotic variance, and CSV/JSON export of recorded traces.
"""

import csv
import json
import os

import numpy as np
from scipy.special import log_ndtr


def lag1_energy_autocorr(v_trace, burn_in=0.2):
    """Lag-one Pearson autocorrelation of an energy series.

    Under idealized exploration the energies renew i.i.d., so the value
    should sit within ~3/sqrt(T) of zero.  Raises on (near-)constant
    traces, where the correlation is undefined.
    """
    if not 0.0 <= burn_in < 1.0:
        raise ValueError(f"burn_in must lie in [0, 1), got {burn_in!r}")
    v = np.asarray(v_trace, dtype=float)
    t0 = int(np.floor(burn_in * v.size))
    v = v[t0:]
    if v.size < 30:
        raise ValueError("need at least 30 post-burn-in points")
    if np.var(v) == 0.0:
        raise ValueError("constant energy trace: correlation undefined")
    return float(np.corrcoef(v[:-1], v[1:])[0, 1])


def empirical_tv_discrete(codes, exact, n_states=None):
    """(1/2) sum_s |phat(s) - p(s)| between sample codes and an exact table.

    Returns (tv, noise_floor) where the floor approximates the expected TV
    of exact samples of the same size: each state contributes the
    half-normal mean deviation sqrt(2 p (1-p) / (pi n)), capped at 2p for
    states too rare to be observed.  Estimates below the floor are
    noise-dominated.
    """
    p = np.asarray(exact.probs, dtype=float)
    if n_states is None:
        n_states = p.size
    codes = np.asarray(codes).ravel()
    counts = np.bincount(codes, minlength=n_states).astype(float)
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
# uses.
_AD_LEVELS = np.array([0.15, 0.10, 0.05, 0.025, 0.01])
_AD_NORM_CRIT = np.array([0.561, 0.631, 0.752, 0.873, 1.035])


def batch_mean_normality(standardized_stats, level=0.01):
    """Anderson-Darling normality check of standardized run statistics.

    A^2 is computed against the normal with the sample mean and ddof=1
    standard deviation.  Returns (passed, statistic, critical value at the
    tabulated significance level nearest to `level`).
    """
    z = np.asarray(standardized_stats, dtype=float)
    n = z.size
    w = (np.sort(z) - z.mean()) / z.std(ddof=1)
    i = np.arange(1, n + 1)
    # log(1 - Phi(w)) = log Phi(-w)
    a2 = float(-n - np.sum((2 * i - 1.0) / n
                           * (log_ndtr(w) + log_ndtr(-w[::-1]))))
    crits = np.around(_AD_NORM_CRIT / (1.0 + 0.75 / n + 2.25 / n / n), 3)
    crit = float(crits[np.argmin(np.abs(_AD_LEVELS - level))])
    return bool(a2 < crit), a2, crit


def export_run(trace, out_dir, replica=0, trajectory_cutoff=500):
    """Write a recorded trace to plot-ready CSV files plus a JSON summary.

    Files (column names are stable):
      trace.csv   one row per iteration of the chosen replica: t, parity,
                  per-chain V, per-chain slot index I, per-chain direction,
                  per-pair accept bit
      pairs.csv   consecutive target-chain energy pairs (v_t, v_next)
      summary.json  rejection rates, barrier estimate, restart count
    Returns the list of written paths.
    """
    from .engine import rejection_rates, restart_count

    os.makedirs(out_dir, exist_ok=True)
    n_chains = trace.betas.size
    n = n_chains - 1
    written = []

    path = os.path.join(out_dir, "trace.csv")
    header = (["t", "parity"]
              + [f"V{c}" for c in range(n_chains)]
              + [f"I{c}" for c in range(n_chains)]
              + [f"eps{c}" for c in range(n_chains)]
              + [f"accept{p}" for p in range(n)])
    t_rows = min(trace.n_iters, trajectory_cutoff)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for t in range(t_rows):
            row = [t, int(trace.parities[t, replica])]
            if trace.energies is not None:
                row += [repr(float(x)) for x in trace.energies[t, :, replica]]
            else:
                row += [""] * n_chains
            row += [int(x) for x in trace.index[t + 1, :, replica]]
            row += [int(x) for x in trace.direction[t + 1, :, replica]]
            row += [int(b) for b in trace.accepts[t, :, replica]]
            w.writerow(row)
    written.append(path)

    if trace.energies is not None:
        path = os.path.join(out_dir, "pairs.csv")
        v = trace.energies[:, n, replica]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["v_t", "v_next"])
            for a, b in zip(v[:-1], v[1:]):
                w.writerow([repr(float(a)), repr(float(b))])
        written.append(path)

    stats = rejection_rates(trace)
    summary = {
        "scheme": trace.scheme,
        "n_chains": int(n_chains),
        "n_iters": int(trace.n_iters),
        "n_replicas": int(trace.n_replicas),
        "rejection_rates": [float(x) for x in stats.rejection],
        "barrier_estimate": stats.barrier_estimate,
        "restart_count": restart_count(trace),
    }
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
    written.append(path)
    return written


def read_trace_csv(path):
    """Re-parse a trace.csv written by export_run into column arrays."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    cols = {name: [] for name in header}
    for row in rows:
        for name, val in zip(header, row):
            cols[name].append(val)
    out = {}
    for name, vals in cols.items():
        if name.startswith("V"):
            out[name] = np.array([float(v) if v else np.nan for v in vals])
        else:
            out[name] = np.array([int(v) if v != "" else -1 for v in vals])
    return out
