"""One measured workload process: set up, call ptlab.cli.main(argv) once,
check the outputs and write result.json into the sample directory.

Started by run.py as a fresh interpreter for every sample, so set-up time
and peak memory are those of a user's process.  With --setup-only it stops
after set-up.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--dir", required=True, help="sample directory")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    # fixed reference work, independent of ptlab: it measures the host's speed
    import numpy
    import scipy
    import scipy.sparse
    import scipy.special
    import scipy.stats

    ref_s = time.monotonic() - args.spawned
    import ptlab
    import ptlab.cli
    import workloads

    if not os.path.abspath(ptlab.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported ptlab from {ptlab.__file__}, not {SRC}")
    workloads.setup(args.workload)
    result = {"setup_s": time.monotonic() - args.spawned, "ref_s": ref_s}
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__,
                          "ptlab": ptlab.__version__}
    if not args.setup_only:
        result.update(measure(args, ptlab.cli.main, workloads))
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def measure(args, cli_main, workloads):
    # relative to the checkout, so the recorded argv names no host path
    out_dir = os.path.relpath(os.path.join(args.dir, "out"))
    cli_argv = workloads.build_argv(args.workload, args.seed, out_dir,
                                    args.scale)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(run_id=os.path.basename(args.dir))
        tracing.install(tracer)
        cli_main = tracer.wrap("cli.main", cli_main)
    stdout_path = os.path.join(args.dir, "stdout.json")
    with open(stdout_path, "w") as fh, contextlib.redirect_stdout(fh):
        start = time.perf_counter()
        rc = cli_main(cli_argv)
        wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"rc": rc, "wall_s": wall, "peak_rss_mb": rss_mb, "argv": cli_argv}
    if tracer is not None:
        import tracing

        tracer.restore()
        tracer.dump(os.path.join(args.dir, "spans.json"))
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
    if rc == 0:
        with open(stdout_path) as fh:
            summary = json.load(fh)
        checks = workloads.check_outputs(args.workload, out_dir, summary)
        out.update(attempted=checks.attempted, failures=checks.failures)
    return out


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report to the parent, which fails the run
        traceback.print_exc()
        sys.exit(3)
