"""Record a baseline: ten untraced runs and one traced run per workload.

    python3 perfbench/baseline.py --tag seed

Writes perfbench/BENCH_<tag>.json with, for every workload and end-to-end
metric, the ten per-run values, their median and quartiles, and the spread
(interquartile range over median); the per-layer metrics of the traced run;
the tracing overhead; and the provenance of the first run.  Runs one
benchmark process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEEDS = range(1, 11)


def bench(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {"seconds": seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
        metrics = {name: summarize([r["metrics"][name]["value"]
                                    for _, r in runs])
                   for name in runs[0][1]["metrics"]}
        provenance, traced = bench(workload, 1, seconds, 1)
        entry = {
            "end_to_end": metrics,
            "units": {k: v["unit"] for k, v in runs[0][1]["metrics"].items()},
            "checks_attempted": sum(r["attempted"] for _, r in runs),
            "checks_failed": sum(r["failed"] for _, r in runs),
            "samples_per_run": [len(p["samples"]) for p, _ in runs],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_run_correct": traced["correct"],
            "provenance": runs[0][0],
        }
        record["workloads"][workload] = entry
        print(workload, {k: (round(v["median"], 4), round(v["spread"], 4))
                         for k, v in metrics.items()},
              "failed", entry["checks_failed"], flush=True)
    path = os.path.join(HERE, f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print("wrote", path)


if __name__ == "__main__":
    main()
