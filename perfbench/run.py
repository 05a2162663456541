"""ptlab benchmark: time one workload through ptlab.cli.main and check it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  For S seconds it starts one fresh worker
process at a time (perfbench/worker.py); each imports ptlab from src/,
builds the workload's exact tables, makes one CLI call and checks the
output files against the repository's oracles.  It then starts set-up-only
workers until at least MIN_SETUPS set-ups were timed.

The last line of standard output is the result:
  --trace 0: medians of wall_s, setup_s and peak_rss_mb over the run, the
             two times scaled to the reference host speed (see REF_S);
  --trace 1: per-layer metrics, the median over traced samples, which
             alternate with untraced samples of the same seed.
The line before it records provenance and every sample.  "attempted" and
"failed" count output checks; a crashed sample fails all of its checks.
"""

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SETUPS = 3
CHILD_TIMEOUT_S = 170.0
LAST_START_S = 120.0  # start no sample later than this into the run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The host's speed drifts by up to 25% over minutes, and wall and set-up
# times drift together.  Every worker first imports numpy and scipy, a fixed
# amount of work that no ptlab change alters, and times it (ref_s).  The
# reported times are scaled by REF_S / median(ref_s) of the run: they are
# seconds on a host where that import takes REF_S.
REF_S = 1.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny sizes are for the benchmark's own tests")
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    # the workloads make no dense BLAS calls; one thread keeps runs quiet
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


class Run:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.work = os.path.join(HERE, ".work",
                                 f"{args.workload}-{args.seed}-{os.getpid()}")
        self.samples = []   # worker results of measured samples
        self.setups = []    # setup_s of every worker, measured or set-up-only
        self.refs = []      # ref_s of the same workers
        self.durations = []
        self.attempted = 0
        self.failures = []
        self.versions = {}
        self.reference_out = None  # output dir of the first plain sample

    def spawn(self, name, traced=False, setup_only=False):
        """Run one worker to completion; returns its result or None."""
        sample_dir = os.path.join(self.work, name)
        os.makedirs(sample_dir)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--scale", self.args.scale, "--dir", sample_dir]
        cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
        started = time.monotonic()
        with open(os.path.join(sample_dir, "stderr.txt"), "w") as err:
            proc = subprocess.Popen(cmd + ["--spawned", repr(started)],
                                    cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass  # killed below; the sample counts as crashed
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        self.durations.append(time.monotonic() - started)
        path = os.path.join(sample_dir, "result.json")
        if proc.returncode != 0 or not os.path.exists(path):
            with open(os.path.join(sample_dir, "stderr.txt")) as err:
                tail = err.read().strip().splitlines()[-1:] or ["no output"]
            sys.stderr.write(f"{name}: worker exited {proc.returncode}: "
                             f"{tail[0]}\n")
            return None
        with open(path) as fh:
            res = json.load(fh)
        self.setups.append(res["setup_s"])
        self.refs.append(res["ref_s"])
        self.versions = res["versions"]
        return res

    def sample(self, k, traced):
        name = f"{'traced' if traced else 'plain'}-{k}"
        res = self.spawn(name, traced=traced)
        expected = workloads.expected_checks(self.args.workload,
                                             self.args.scale)
        if res is None or res.get("rc") != 0 or "attempted" not in res:
            # a crash or non-zero exit fails every check of the sample
            self.attempted += expected
            self.failures += [f"{name}: no result"] * expected
            return
        res["traced"] = traced
        self.samples.append(res)
        self.attempted += res["attempted"]
        self.failures += [f"{name}: {f}" for f in res["failures"]]
        self.compare_outputs(name, traced)

    def compare_outputs(self, name, traced):
        """Outputs at one seed must be byte-identical, traced or not."""
        out = os.path.join(self.work, name, "out")
        ref = self.reference_out
        if ref is None:
            if not traced:
                self.reference_out = out
            return
        files = workloads.output_files(self.args.workload)
        _, mismatch, errors = filecmp.cmpfiles(ref, out, files, shallow=False)
        self.attempted += 1
        if mismatch or errors:
            self.failures.append(f"{name}: outputs differ from "
                                 f"{os.path.basename(os.path.dirname(ref))}: "
                                 f"{mismatch + errors}")

    def measure(self):
        start = time.monotonic()
        deadline = start + self.args.seconds
        k = 0
        while True:
            traced = bool(self.args.trace) and k % 2 == 1
            self.sample(k, traced)
            k += 1
            if self.args.trace and k < 2:
                continue
            now = time.monotonic()
            next_sample = statistics.median(self.durations)
            setup = statistics.median(self.setups) if self.setups else 2.0
            setups_left = max(0, MIN_SETUPS - len(self.setups) - 1)
            if (now + next_sample + setups_left * setup > deadline
                    or now - start > LAST_START_S):
                break
        i = 0
        while len(self.setups) < MIN_SETUPS and i < 2 * MIN_SETUPS:
            self.spawn(f"setup-{i}", setup_only=True)
            i += 1

    def metrics(self):
        plain = [s for s in self.samples if not s["traced"]]
        traced = [s for s in self.samples if s["traced"]]
        if not self.args.trace:
            scale = REF_S / statistics.median(self.refs)
            values = {
                "wall_s": statistics.median(s["wall_s"] for s in plain) * scale,
                "setup_s": statistics.median(self.setups) * scale,
                "peak_rss_mb": statistics.median(s["peak_rss_mb"]
                                                 for s in plain),
            }
            units = END_TO_END
        else:
            values = {name: statistics.median(s["layers"][name]
                                              for s in traced)
                      for name in traced[0]["layers"]}
            values["trace.overhead_s"] = (
                statistics.median(s["wall_s"] for s in traced)
                - statistics.median(s["wall_s"] for s in plain))
            units = tracing.PER_LAYER
        return {name: {"value": v, "unit": units[name]}
                for name, v in values.items()}

    def provenance(self):
        argv = self.samples[0]["argv"] if self.samples else None
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "scale": self.args.scale,
            "cli_argv": argv,
            "nproc": os.cpu_count(),
            "threads": {var: self.env[var] for var in THREAD_VARS},
            "platform": platform.platform(),
            "versions": self.versions,
            "git_commit": git_commit(),
            "samples": [{k: s[k] for k in ("traced", "wall_s", "peak_rss_mb")}
                        for s in self.samples],
            "setups_s": self.setups,
            "refs_s": self.refs,
            "checks_failed_frac": len(self.failures) / max(self.attempted, 1),
            "failures": self.failures[:20],
        }


def keep_spans(run):
    """Keep the spans of the first traced sample past the run."""
    spans = os.path.join(run.work, "traced-1", "spans.json")
    if os.path.exists(spans):
        shutil.copy(spans, os.path.join(
            os.path.dirname(run.work),
            f"spans-{run.args.workload}-{run.args.seed}.json"))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ptlab", "cli.py")):
        sys.stderr.write(f"no ptlab source under {ROOT}/src; run from the "
                         "root of a ptlab checkout\n")
        return 2
    run = Run(args)
    try:
        run.measure()
        plain = [s for s in run.samples if not s["traced"]]
        traced = [s for s in run.samples if s["traced"]]
        if not plain or (args.trace and not traced) or not run.setups:
            sys.stderr.write("no sample completed; see the errors above\n")
            return 2
        result = {
            "correct": not run.failures,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": run.metrics(),
        }
        print(json.dumps({"provenance": run.provenance()}))
        print(json.dumps(result))
        return 0
    finally:
        keep_spans(run)
        shutil.rmtree(run.work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
