"""Central-limit check on the bimodal target.

Runs many independent tempering instances, forms the standardized
batch-means statistic of sign(x) on the target chain for each, and tests
the collection for normality.
"""

import argparse
import json

import numpy as np

from ptlab.diagnostics import AD_LEVELS, batch_mean_normality
from ptlab.experiments import bimodal_clt_runs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=500)
    ap.add_argument("--chains", type=int, default=7)
    ap.add_argument("--iters", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--level", type=float, default=0.01,
                    choices=AD_LEVELS.tolist())
    args = ap.parse_args()

    zs = bimodal_clt_runs(n_runs=args.runs, n=args.chains - 1,
                          n_iters=args.iters, seed=args.seed)
    passed, stat, crit = batch_mean_normality(zs, level=args.level)
    print(json.dumps({
        "n_runs": int(zs.size),
        "mean_z": float(np.mean(zs)),
        "sd_z": float(np.std(zs)),
        "anderson_darling_stat": stat,
        "critical_value": crit,
        "normality_passed": passed,
    }, indent=2))


if __name__ == "__main__":
    main()
