"""The four benchmark workloads: CLI argv built from a seed, the set-up each
needs, and the checks of its output files against the repository's oracles.

Every check compares an output with an exact oracle (or an oracle-derived
reference) under a stated tolerance, never with a stored copy of seeded
output, so a change of the random-stream layout is not a failure.
"""

import csv
import json
import math
import os

WORKLOADS = ("ising-validate", "tune-bimodal", "laplace", "hitting-bm")

# Criterion 5 of tests/test_acceptance.py: sup_t C(lambda, t) to +-0.02.
C_TABLE = {
    1.0: 0.632, 2.0: 0.864, 4.0: 0.982, 8.0: 1.038, 16.0: 1.091,
    32.0: 1.126, 64.0: 1.146, 128.0: 1.156, 256.0: 1.162, 512.0: 1.165,
}
C_TOL = 0.02
C_UNIVERSAL = 106.0

# Criterion 6: barrier estimate of the 6-chain Ising run.
ISING_LAMBDA = 2.2
ISING_LAMBDA_TOL = 0.3

# Global communication barrier of the bimodal path, from gcb.gcb_direct_mc
# with the substitution beta = u**2 (see reference.py, which regenerates
# it): 2.7639 with Monte Carlo standard error 0.0008.  The tuned 13-chain
# estimate (sum of 12 pair rejection rates after 4 rounds) sits below it by
# the finite-schedule bias of that estimator: over seeds 1000-1007 it read
# 2.6811-2.6937 (mean 2.6872, sd 0.0036), a bias of -0.077.  The budget is
# that bias plus four combined standard deviations, rounded up:
# 0.077 + 4 * sqrt(0.0036**2 + 0.0008**2) = 0.092 -> 0.1.
BIMODAL_LAMBDA = 2.7639
BIMODAL_LAMBDA_BUDGET = 0.1

# Criterion 4: reflected Brownian motion against the series tail.
BM_DT = 1e-4

# Workload sizes.  "full" is what the benchmark measures; "tiny" keeps every
# code path and check of a workload and exists for the benchmark's tests.
SIZES = {
    "ising-validate": {"full": 20_000, "tiny": 2_000},
    "tune-bimodal": {"full": 4, "tiny": 4},
    "laplace": {"full": "1,32", "tiny": "1,16"},
    "hitting-bm": {"full": 16_000, "tiny": 2_000},
}


def build_argv(workload, seed, out_dir, scale="full"):
    """The ptlab CLI argv of one workload run.

    The seed is the program's --seed; sizes do not depend on it, so the
    work per run is the same for every seed.
    """
    size = SIZES[workload][scale]
    common = ["--seed", str(seed), "--out", out_dir]
    if workload == "ising-validate":
        return ["ising-validate", "--explorer", "gibbs", "--chains", "6",
                "--init", "all-minus", "--replicas", str(size)] + common
    if workload == "tune-bimodal":
        return ["tune", "--model", "bimodal", "--chains", "13",
                "--rounds", str(size)] + common
    if workload == "laplace":
        return ["laplace", "--lam", size] + common
    if workload == "hitting-bm":
        return ["hitting", "--process", "bm", "--dt", repr(BM_DT),
                "--replicas", str(size), "--tmin", "0.1", "--tmax", "3.0",
                "--points", "30"] + common
    raise ValueError(f"unknown workload {workload!r}")


def output_files(workload):
    """Files a run writes into its --out directory."""
    return {
        "ising-validate": ["ising_tv.csv"],
        "tune-bimodal": ["schedule.json"],
        "laplace": ["c_table.json"],
        "hitting-bm": ["survival_bm.csv"],
    }[workload]


def setup(workload):
    """Build the exact tables the workload needs before its timed call."""
    if workload == "ising-validate":
        from ptlab.models import ising_bond_sums, ising_exact_distribution

        ising_bond_sums()
        ising_exact_distribution(1.0)


class Checks:
    """Tally of output checks; each failure keeps a one-line reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self):
        return len(self.failures)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: [float(r[k]) for r in rows] for k in rows[0]}


def check_ising(out_dir, summary, checks, lam_ref=ISING_LAMBDA):
    cols = _read_csv(os.path.join(out_dir, "ising_tv.csv"))
    for t, tv, floor, bound in zip(cols["t"], cols["tv"],
                                   cols["noise_floor"], cols["bound"]):
        if t >= 2:
            checks.expect(tv <= bound + 3.0 * floor,
                          f"t={t:g}: tv {tv:.4g} > bound {bound:.4g} + 3 floor")
    lam = summary["lambda_hat"]
    checks.expect(abs(lam - lam_ref) <= ISING_LAMBDA_TOL,
                  f"lambda_hat {lam:.4g} outside {lam_ref} +- {ISING_LAMBDA_TOL}")


def check_tune(out_dir, summary, checks, lam_ref=BIMODAL_LAMBDA):
    with open(os.path.join(out_dir, "schedule.json")) as fh:
        sched = json.load(fh)
    betas = sched["schedule"]
    checks.expect(betas[0] == 0.0 and betas[-1] == 1.0
                  and all(b > a for a, b in zip(betas, betas[1:])),
                  "schedule is not strictly increasing from 0 to 1")
    lam = sched["lambda_hat"]
    checks.expect(abs(lam - lam_ref) <= BIMODAL_LAMBDA_BUDGET,
                  f"lambda_hat {lam:.4g} outside {lam_ref} +- "
                  f"{BIMODAL_LAMBDA_BUDGET}")


def check_laplace(out_dir, summary, checks, table=None):
    table = C_TABLE if table is None else table
    with open(os.path.join(out_dir, "c_table.json")) as fh:
        got = json.load(fh)
    for key, row in got.items():
        lam = float(key)
        checks.expect(lam in table and abs(row["C"] - table[lam]) <= C_TOL,
                      f"C({lam:g}) = {row['C']:.4g}, table {table.get(lam)}")
        checks.expect(row["analytic_bound"] <= C_UNIVERSAL,
                      f"analytic bound {row['analytic_bound']:.4g} > 106")


def check_hitting(out_dir, summary, checks, tail=None):
    if tail is None:
        from ptlab.bounds import rpt_infinite_tail as tail
    cols = _read_csv(os.path.join(out_dir, "survival_bm.csv"))
    allowance = 2.0 * math.sqrt(BM_DT)
    for t, surv, se in zip(cols["t"], cols["survival"], cols["stderr"]):
        exact = float(tail(t))
        checks.expect(abs(surv - exact) <= 3.0 * se + allowance,
                      f"t={t:g}: survival {surv:.4g} vs series {exact:.4g}")


CHECKERS = {
    "ising-validate": check_ising,
    "tune-bimodal": check_tune,
    "laplace": check_laplace,
    "hitting-bm": check_hitting,
}


def expected_checks(workload, scale="full"):
    """Checks one successful run makes; a crashed run fails all of them."""
    size = SIZES[workload][scale]
    return {
        "ising-validate": 24 + 1,  # t = 2..25, and lambda_hat
        "tune-bimodal": 2,
        "laplace": 2 * len(str(size).split(",")),
        "hitting-bm": 30,
    }[workload]


def check_outputs(workload, out_dir, summary):
    """Run the workload's checks on one run's outputs."""
    checks = Checks()
    CHECKERS[workload](out_dir, summary, checks)
    return checks
