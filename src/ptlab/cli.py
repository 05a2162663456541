"""Command-line front end.

Subcommands: sample, tune, gcb, bounds, hitting, laplace, ising-validate,
diagnose.  Every run prints a JSON summary to stdout and writes plot-ready
CSV/JSON files to the output directory.  Exit codes: 0 success, 1 invalid
arguments/configuration, 2 runtime failure.  Errors are emitted as JSON on
stderr.  Flags may also be supplied through a JSON file via --config;
explicit flags override file values.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import laplace as laplace_mod
from . import walks as walks_mod
from .core import AnnealingSchedule
from .diagnostics import (
    asymptotic_variance,
    export_run,
    lag1_energy_autocorr,
    read_trace_csv,
)
from .engine import PTConfig, rejection_rates, run_pt
from .experiments import (
    MODELS,
    gcb,
    ising_tv_experiment,
    model_and_kernels,
    tune,
)


class CliError(Exception):
    """Invalid arguments or configuration (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as CliError, so they share the JSON error path."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _default_outdir():
    return os.environ.get("PTLAB_OUTDIR", "ptlab-out")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not serializable: {type(obj)!r}")


def _emit(summary):
    print(json.dumps(summary, default=_json_default, indent=2))


def _write_csv(path, header, columns):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([repr(float(x)) if isinstance(x, (float, np.floating))
                        else x for x in row])


def _parse_float_list(text):
    try:
        return [float(x) for x in str(text).split(",") if x != ""]
    except ValueError as exc:
        raise CliError(f"bad numeric list {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_sample(args):
    model, kernels = model_and_kernels(args.model, args.chains - 1)
    if args.schedule:
        schedule = AnnealingSchedule(np.asarray(_parse_float_list(args.schedule)))
        if schedule.n_intervals != args.chains - 1:
            raise CliError("--schedule length must equal --chains")
    else:
        schedule = AnnealingSchedule.uniform(args.chains - 1)
    cfg = PTConfig(args.scheme, schedule, n_iters=args.iters,
                   n_replicas=args.replicas, seed=args.seed,
                   record_indices=True, record_energies=True)
    trace = run_pt(cfg, model, kernels)
    files = export_run(trace, args.out)
    stats = rejection_rates(trace, burn_in=args.burn_in)
    _emit({
        "command": "sample",
        "model": args.model,
        "scheme": args.scheme,
        "files": files,
        "rejection_rates": stats.rejection,
        "lambda_hat": stats.barrier_estimate,
    })


def cmd_tune(args):
    schedule, lam_hat, barrier = tune(args.model, args.chains - 1,
                                      rounds=args.rounds, seed=args.seed)
    out = {
        "command": "tune",
        "model": args.model,
        "rounds": args.rounds,
        "lambda_hat": lam_hat,
        "schedule": schedule.betas,
        "barrier_knots": barrier.knots,
        "barrier_values": barrier.values,
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "schedule.json")
    with open(path, "w") as fh:
        json.dump(out, fh, default=_json_default, indent=2)
    out["files"] = [path]
    _emit(out)


def cmd_gcb(args):
    res = gcb(args.model, args.chains - 1, args.iters, args.replicas,
              args.burn_in, seed=args.seed)
    res["command"] = "gcb"
    res["model"] = args.model
    _emit(res)


def cmd_bounds(args):
    ts = np.arange(0, args.tmax + 1)
    exact = bounds_mod.hitting_tail(args.scheme, args.N, args.r, ts)
    coarse = bounds_mod.coarse_bound(args.scheme, args.N, args.r, ts)
    lam = args.N * args.r
    if args.scheme == "nrpt":
        infinite = (bounds_mod.nrpt_infinite_bound(lam, ts / args.N)
                    if lam >= 1.0 else np.ones_like(ts, dtype=float))
    else:
        infinite = bounds_mod.rpt_infinite_tail(ts / (args.N**2))
    path = os.path.join(args.out, "bounds.csv")
    _write_csv(path, ["t", "exact_tail", "coarse_bound", "infinite_limit"],
               [ts, exact, coarse, infinite])
    _emit({
        "command": "bounds",
        "scheme": args.scheme,
        "N": args.N,
        "r": args.r,
        "files": [path],
        "p_hit_by_tmax": float(1.0 - exact[-1]),
    })


def cmd_hitting(args):
    t_grid = np.linspace(args.tmin, args.tmax, args.points)
    sims = {
        "nrpt": lambda rng, size: walks_mod.sim_persistent_walk(
            args.N, args.r, rng, size),
        "rpt": lambda rng, size: walks_mod.sim_seo_walk(
            args.N, args.r, rng, size),
        "pdmp": lambda rng, size: walks_mod.sim_pdmp(args.lam, rng, size),
        "bm": lambda rng, size: walks_mod.sim_reflected_bm(
            rng, size, dt=args.dt),
    }
    if args.process not in sims:
        raise CliError(f"unknown process {args.process!r}")
    curve = walks_mod.survival_curve(sims[args.process], t_grid,
                                     args.replicas, args.seed)
    path = os.path.join(args.out, f"survival_{args.process}.csv")
    _write_csv(path, ["t", "survival", "stderr"],
               [curve.t_grid, curve.survival, curve.stderr])
    _emit({
        "command": "hitting",
        "process": args.process,
        "replicas": args.replicas,
        "files": [path],
    })


def cmd_laplace(args):
    lams = _parse_float_list(args.lam)
    os.makedirs(args.out, exist_ok=True)
    files = []
    table = {}
    t_grid = laplace_mod.default_t_grid()
    for lam in lams:
        sup, t_at, curve = laplace_mod.estimate_C_sup(lam, t_grid)
        table[str(lam)] = {"C": sup, "argmax_t": t_at,
                           "analytic_bound": laplace_mod.c_analytic_bound(lam)}
        if args.curves:
            path = os.path.join(args.out, f"c_curve_lam{lam:g}.csv")
            _write_csv(path, ["t", "C"], [t_grid, curve])
            files.append(path)
    if args.fgrid:
        lam = lams[0]
        re = np.linspace(-3.0, 1.0, 81)
        im = np.linspace(0.0, 12.0, 121)
        zz = re[None, :] + 1j * im[:, None]
        zz = np.where(zz == 0, 1e-9, zz)
        mag = np.abs(laplace_mod.eval_F(zz, lam))
        path = os.path.join(args.out, f"f_magnitude_lam{lam:g}.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["re", "im", "abs_F"])
            for i in range(im.size):
                for j in range(re.size):
                    w.writerow([re[j], im[i], repr(float(mag[i, j]))])
        files.append(path)
    path = os.path.join(args.out, "c_table.json")
    with open(path, "w") as fh:
        json.dump(table, fh, indent=2)
    files.append(path)
    _emit({"command": "laplace", "table": table, "files": files})


def cmd_ising_validate(args):
    res = ising_tv_experiment(n=args.chains - 1, n_iters=args.iters,
                              n_replicas=args.replicas, init=args.init,
                              explorer=args.explorer, seed=args.seed)
    path = os.path.join(args.out, "ising_tv.csv")
    _write_csv(path, ["t", "tv", "noise_floor", "bound"],
               [res["t"], res["tv"], res["noise_floor"], res["bound"]])
    ok = bool(np.all(res["tv"][1:] <= res["bound"][1:]
                     + 3.0 * res["noise_floor"][1:]))
    _emit({
        "command": "ising-validate",
        "lambda_hat": res["lambda_hat"],
        "r_bar": res["r_bar"],
        "rejection_rates": res["rejection_rates"],
        "schedule": res["schedule"],
        "tv_below_bound": ok,
        "files": [path],
    })


def cmd_diagnose(args):
    cols = read_trace_csv(args.trace)
    v_cols = sorted([c for c in cols if c.startswith("V")],
                    key=lambda s: int(s[1:]))
    if not v_cols:
        raise CliError("trace has no energy columns")
    target = cols[v_cols[-1]]
    out = {
        "command": "diagnose",
        "n_iters": int(target.size),
        "lag1_energy_autocorr": lag1_energy_autocorr(target,
                                                     burn_in=args.burn_in),
        "lag1_noise_band": 3.0 / np.sqrt(max(target.size, 1)),
    }
    t0 = int(np.floor(args.burn_in * target.size))
    post = target[t0:]
    if post.size >= 1000:
        out["asymptotic_variance"] = asymptotic_variance(post - post.mean())
    _emit(out)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None,
                   help="JSON file of flag defaults (flags override)")


def build_parser():
    ap = _Parser(prog="ptlab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run PT and export the trace")
    p.add_argument("--model", default="bimodal", choices=list(MODELS))
    p.add_argument("--scheme", default="nrpt", choices=["nrpt", "rpt"])
    p.add_argument("--chains", type=int, default=7)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--schedule", default=None,
                   help="comma-separated schedule points")
    p.add_argument("--burn-in", type=float, default=0.2)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("tune", help="equi-acceptance schedule adaptation")
    p.add_argument("--model", default="bimodal", choices=list(MODELS))
    p.add_argument("--chains", type=int, default=13)
    p.add_argument("--rounds", type=int, default=6)
    _add_common(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("gcb", help="communication-barrier estimate")
    p.add_argument("--model", default="bimodal", choices=list(MODELS))
    p.add_argument("--chains", type=int, default=13)
    p.add_argument("--iters", type=int, default=256)
    p.add_argument("--replicas", type=int, default=5000)
    p.add_argument("--burn-in", type=float, default=0.2)
    _add_common(p)
    p.set_defaults(func=cmd_gcb)

    p = sub.add_parser("bounds", help="exact tails and closed-form bounds")
    p.add_argument("--scheme", default="nrpt", choices=["nrpt", "rpt"])
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--r", type=float, default=0.46)
    p.add_argument("--tmax", type=int, default=25)
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("hitting", help="Monte Carlo survival curves")
    p.add_argument("--process", default="nrpt",
                   choices=["nrpt", "rpt", "pdmp", "bm"])
    p.add_argument("--N", type=int, default=30)
    p.add_argument("--r", type=float, default=0.1)
    p.add_argument("--lam", type=float, default=4.0)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--replicas", type=int, default=100_000)
    p.add_argument("--tmin", type=float, default=1.0)
    p.add_argument("--tmax", type=float, default=200.0)
    p.add_argument("--points", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_hitting)

    p = sub.add_parser("laplace", help="C(Lambda) table and curves")
    p.add_argument("--lam", default="1,2,4",
                   help="comma-separated Lambda values")
    p.add_argument("--curves", action="store_true",
                   help="also write per-Lambda C(Lambda, t) CSV curves")
    p.add_argument("--fgrid", action="store_true",
                   help="dump an |F(z)| magnitude grid for the first Lambda")
    _add_common(p)
    p.set_defaults(func=cmd_laplace)

    p = sub.add_parser("ising-validate", help="Ising TV-vs-bound experiment")
    p.add_argument("--chains", type=int, default=6)
    p.add_argument("--iters", type=int, default=25)
    p.add_argument("--replicas", type=int, default=100_000)
    p.add_argument("--init", default="all-minus",
                   choices=["all-minus", "random"])
    p.add_argument("--explorer", default="gibbs", choices=["gibbs", "ideal"])
    _add_common(p)
    p.set_defaults(func=cmd_ising_validate)

    p = sub.add_parser("diagnose", help="diagnostics over an exported trace")
    p.add_argument("--trace", required=True, help="path to trace.csv")
    p.add_argument("--burn-in", type=float, default=0.2)
    _add_common(p)
    p.set_defaults(func=cmd_diagnose)

    return ap, dict(sub.choices)


def _config_argv(subparser, path):
    """Flag tokens for the values a JSON config file sets.

    The tokens go before the command-line flags, so explicit flags win
    (argparse keeps the last value) and every config value passes through
    its flag's type and choices.
    """
    try:
        with open(path) as fh:
            conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config: {exc}") from exc
    if not isinstance(conf, dict):
        raise CliError("config must be a JSON object")
    flags = {a.dest: a for a in subparser._actions if a.option_strings}
    unknown = [k for k in conf if k.replace("-", "_") not in flags]
    if unknown:
        raise CliError(f"unknown config keys: {unknown}")
    tokens = []
    for key, val in conf.items():
        action = flags[key.replace("-", "_")]
        opt = action.option_strings[0]
        if action.nargs == 0:
            if not isinstance(val, bool):
                raise CliError(f"config key {key!r} must be true or false")
            if val:
                tokens.append(opt)
        else:
            tokens.append(f"{opt}={val}")
    return tokens


def main(argv=None):
    parser, subparsers = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(
                argv[:1] + _config_argv(subparsers[args.command], args.config)
                + argv[1:])
        if args.out is None:
            args.out = _default_outdir()
        args.func(args)
        return 0
    except (CliError, ValueError) as exc:
        json.dump({"error": str(exc), "kind": "validation"}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except SystemExit as exc:
        # --help exits through argparse
        return 0 if exc.code in (0, None) else 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        json.dump({"error": str(exc), "kind": "runtime"}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
