"""Command-line front end.

Subcommands: sample, tune, gcb, bounds, hitting, laplace, ising-validate,
clt, scaling, diagnose.  Every run prints a JSON summary to stdout; all
but gcb, clt, scaling and diagnose also write plot-ready files to the
output directory.  This is the only module in the package that parses
flags or reads or writes files, every CSV through _write_csv and every
JSON file through _write_json.  Exit codes: 0 success, 1 invalid
arguments/configuration, 2 runtime failure, with the error as JSON on
stderr.

Each subcommand declares only the flags its handler reads, so a flag it
would ignore is invalid input: --seed where it draws random numbers
(sample, tune, gcb, hitting, ising-validate, clt), --out where it writes
files (sample, tune, bounds, hitting, laplace, ising-validate).  The one
exception is laplace --seed, kept for the benchmark's laplace workload,
whose argv passes it.  --config, on every subcommand, supplies flags from
a JSON file, required ones included; explicit flags win.

hitting --process nrpt|rpt simulates the index walk whose exact tail
bounds writes.
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
from .diagnostics import (AD_LEVELS, asymptotic_variance,
                          batch_mean_normality, lag1_energy_autocorr)
from .engine import (PTConfig, rejection_rates, restart_count, run_pt,
                     slot_direction)
from .experiments import (
    MODELS,
    bimodal_clt_runs,
    finite_vs_infinite,
    gcb,
    ising_tv_experiment,
    tune,
)


class CliError(Exception):
    """Invalid arguments or configuration (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as CliError, so they share the JSON error path."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


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
    """One row per position across `columns`: floats as repr(float(x)),
    everything else as str(x)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([repr(float(x)) if isinstance(x, (float, np.floating))
                        else x for x in row])


def _write_json(path, obj):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, default=_json_default, indent=2)


def export_run(trace, out_dir):
    """Write replica 0 of a recorded trace, every iteration, to plot-ready
    files and return their paths.

    Files (column names are stable):
      trace.csv   one row per iteration: t, parity, per-chain V, per-chain
                  slot index I, per-chain direction eps, per-pair accept bit
      pairs.csv   consecutive target-chain energy pairs (v_t, v_next)
      summary.json  rejection rates, barrier estimate, restart count
    """
    n_chains = trace.betas.size
    t_iters = trace.n_iters
    v = trace.energies[:, :, 0]
    index = trace.index[1:, :, 0]
    direction = slot_direction(index, trace.parities[1:, 0, None],
                               trace.n_intervals)
    paths = [os.path.join(out_dir, name)
             for name in ("trace.csv", "pairs.csv", "summary.json")]
    _write_csv(paths[0],
               ["t", "parity"]
               + [f"V{c}" for c in range(n_chains)]
               + [f"I{c}" for c in range(n_chains)]
               + [f"eps{c}" for c in range(n_chains)]
               + [f"accept{p}" for p in range(n_chains - 1)],
               [range(t_iters), trace.parities[:t_iters, 0], *v.T,
                *index.T, *direction.T,
                *(trace.accept_bits[:, :, 0] & 1).T])
    _write_csv(paths[1], ["v_t", "v_next"], [v[:-1, -1], v[1:, -1]])
    stats = rejection_rates(trace)
    _write_json(paths[2], {
        "scheme": trace.scheme,
        "n_chains": n_chains,
        "n_iters": t_iters,
        "n_replicas": trace.n_replicas,
        "rejection_rates": stats.rejection,
        "barrier_estimate": stats.barrier_estimate,
        "restart_count": restart_count(trace),
    })
    return paths


def read_trace_csv(path):
    """Parse a trace.csv written by export_run into column arrays: float
    energies V, integers elsewhere.  A blank cell raises ValueError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return {name: np.array([(float if name.startswith("V") else int)(row[k])
                            for row in rows])
            for k, name in enumerate(header)}


def _parse_float_list(text):
    try:
        values = [float(x) for x in str(text).split(",") if x != ""]
    except ValueError as exc:
        raise CliError(f"bad numeric list {text!r}") from exc
    if not values:
        raise CliError(f"empty numeric list {text!r}")
    return values


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_sample(args):
    model, explorer = MODELS[args.model].build()
    if args.schedule:
        schedule = AnnealingSchedule(np.asarray(_parse_float_list(args.schedule)))
        if schedule.n_intervals != args.chains - 1:
            raise CliError("--schedule length must equal --chains")
    else:
        schedule = AnnealingSchedule.uniform(args.chains - 1)
    cfg = PTConfig(args.scheme, schedule, n_iters=args.iters,
                   n_replicas=args.replicas, seed=args.seed)
    trace = run_pt(cfg, model, explorer)
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
    rounds = MODELS[args.model].rounds if args.rounds is None else args.rounds
    schedule, lam_hat, barrier = tune(args.model, args.chains - 1,
                                      rounds=rounds, seed=args.seed)
    out = {
        "command": "tune",
        "model": args.model,
        "rounds": rounds,
        "lambda_hat": lam_hat,
        "schedule": schedule.betas,
        "barrier_knots": barrier.knots,
        "barrier_values": barrier.values,
    }
    path = os.path.join(args.out, "schedule.json")
    _write_json(path, out)
    out["files"] = [path]
    _emit(out)


def cmd_gcb(args):
    res = gcb(args.model, args.chains - 1, args.iters, args.replicas,
              args.burn_in, seed=args.seed)
    res["command"] = "gcb"
    res["model"] = args.model
    _emit(res)


def cmd_bounds(args):
    if args.tmax < 0:
        raise CliError(f"--tmax must be >= 0, got {args.tmax}")
    ts = np.arange(0, args.tmax + 1)
    exact = bounds_mod.hitting_tail(args.scheme, args.N, args.r, ts)
    coarse = bounds_mod.coarse_bound(args.scheme, args.N, args.r, ts)
    if args.scheme == "nrpt":
        infinite = bounds_mod.nrpt_infinite_tail(args.N * args.r, ts / args.N)
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


# the flags each hitting process reads, and their defaults
_HITTING_FLAGS = {"nrpt": {"N": 30, "r": 0.1}, "rpt": {"N": 30, "r": 0.1},
                  "pdmp": {"lam": 4.0}, "bm": {"dt": 1e-4}}


def cmd_hitting(args):
    own = _HITTING_FLAGS[args.process]
    stray = [f"--{k}" for k in ("N", "r", "lam", "dt")
             if k not in own and getattr(args, k) is not None]
    if stray:
        raise CliError(f"--process {args.process} does not read "
                       + ", ".join(stray))
    vars(args).update({k: v for k, v in own.items()
                       if getattr(args, k) is None})
    if not 0.0 <= args.tmin <= args.tmax < np.inf:
        raise CliError("need 0 <= --tmin <= --tmax < inf, got "
                       f"--tmin {args.tmin} --tmax {args.tmax}")
    if args.points < 1:
        raise CliError(f"--points must be >= 1, got {args.points}")
    t_grid = np.linspace(args.tmin, args.tmax, args.points)
    index_walk = lambda rng, size: walks_mod.sim_index_walk(
        args.process, args.N, args.r, rng, size)
    sims = {
        "nrpt": index_walk,
        "rpt": index_walk,
        "pdmp": lambda rng, size: walks_mod.sim_pdmp(args.lam, rng, size),
        # the simulation stops at the last time the curve reads
        "bm": lambda rng, size: walks_mod.sim_reflected_bm(
            rng, size, dt=args.dt, t_max=max(args.tmax, args.dt)),
    }
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
    files = []
    table = {}
    t_grid = laplace_mod.default_t_grid()
    # c_analytic_bound rejects a bad Lambda: all are checked before any curve
    analytic = [laplace_mod.c_analytic_bound(lam) for lam in lams]
    for lam, bound in zip(lams, analytic):
        sup, t_at, curve = laplace_mod.estimate_C_sup(lam)
        table[str(lam)] = {"C": sup, "argmax_t": t_at, "analytic_bound": bound}
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
        _write_csv(path, ["re", "im", "abs_F"],
                   [np.broadcast_to(re, mag.shape).ravel(),
                    np.broadcast_to(im[:, None], mag.shape).ravel(),
                    mag.ravel()])
        files.append(path)
    path = os.path.join(args.out, "c_table.json")
    _write_json(path, table)
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


def cmd_clt(args):
    zs = bimodal_clt_runs(n_runs=args.runs, n=args.chains - 1,
                          n_iters=args.iters, seed=args.seed)
    passed, stat, crit = batch_mean_normality(zs, level=args.level)
    _emit({
        "command": "clt",
        "n_runs": int(zs.size),
        "mean_z": float(np.mean(zs)),
        "sd_z": float(np.std(zs)),
        "anderson_darling_stat": stat,
        "critical_value": crit,
        "normality_passed": passed,
    })


def cmd_scaling(args):
    res = finite_vs_infinite(lam=args.lam,
                             n_values=_parse_float_list(args.n_values))
    _emit({"command": "scaling", **res})


def cmd_diagnose(args):
    try:
        cols = read_trace_csv(args.trace)
    except OSError as exc:
        raise CliError(f"cannot read trace: {exc}") from exc
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


def _burn_in(text):
    """argparse type: a burn-in fraction in [0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {text!r}")
    return value


def _at_least(minimum):
    """argparse type: an integer count of at least `minimum`."""
    def count(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {text!r}")
        return value

    return count


_chains = _at_least(2)  # a chain count: reference and target at least
_positive = _at_least(1)
_replicates = _at_least(100)  # walks.survival_curve's minimum


def _add_common(p, *, seed, out):
    """--config, and --seed and --out where the handler reads them."""
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if out:
        p.add_argument("--out",
                       default=os.environ.get("PTLAB_OUTDIR", "ptlab-out"),
                       help="output directory (default: $PTLAB_OUTDIR, "
                            "else ptlab-out)")
    p.add_argument("--config", default=None,
                   help="JSON file of flag values (flags override)")


def build_parser():
    ap = _Parser(prog="ptlab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run PT and export the trace")
    p.add_argument("--model", default="bimodal", choices=list(MODELS))
    p.add_argument("--scheme", default="nrpt", choices=["nrpt", "rpt"])
    p.add_argument("--chains", type=_chains, default=7)
    p.add_argument("--iters", type=_positive, default=200)
    p.add_argument("--replicas", type=_positive, default=1)
    p.add_argument("--schedule", default=None,
                   help="comma-separated schedule points")
    p.add_argument("--burn-in", type=_burn_in, default=0.2)
    _add_common(p, seed=True, out=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("tune", help="equi-acceptance schedule adaptation")
    p.add_argument("--model", default="bimodal", choices=list(MODELS))
    p.add_argument("--chains", type=_chains, default=13)
    p.add_argument("--rounds", type=int, default=None,
                   help="tuning rounds (default: the model's own count)")
    _add_common(p, seed=True, out=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("gcb", help="communication-barrier estimate")
    p.add_argument("--model", default="bimodal", choices=list(MODELS))
    p.add_argument("--chains", type=_chains, default=13)
    p.add_argument("--iters", type=_positive, default=256)
    p.add_argument("--replicas", type=_positive, default=5000)
    p.add_argument("--burn-in", type=_burn_in, default=0.2)
    _add_common(p, seed=True, out=False)
    p.set_defaults(func=cmd_gcb)

    p = sub.add_parser("bounds", help="exact tails and closed-form bounds")
    p.add_argument("--scheme", default="nrpt", choices=["nrpt", "rpt"])
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--r", type=float, default=0.46)
    p.add_argument("--tmax", type=int, default=25)
    _add_common(p, seed=False, out=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("hitting", help="Monte Carlo survival curves")
    p.add_argument("--process", default="nrpt",
                   choices=["nrpt", "rpt", "pdmp", "bm"])
    p.add_argument("--N", type=int, help="nrpt and rpt only")
    p.add_argument("--r", type=float, help="nrpt and rpt only")
    p.add_argument("--lam", type=float, help="pdmp only")
    p.add_argument("--dt", type=float, help="bm only")
    p.add_argument("--replicas", type=_replicates, default=100_000)
    p.add_argument("--tmin", type=float, default=1.0)
    p.add_argument("--tmax", type=float, default=200.0)
    p.add_argument("--points", type=int, default=100)
    _add_common(p, seed=True, out=True)
    p.set_defaults(func=cmd_hitting)

    p = sub.add_parser("laplace", help="C(Lambda) table and curves")
    p.add_argument("--lam", default="1,2,4",
                   help="comma-separated Lambda values")
    p.add_argument("--curves", action="store_true",
                   help="also write per-Lambda C(Lambda, t) CSV curves")
    p.add_argument("--fgrid", action="store_true",
                   help="dump an |F(z)| magnitude grid for the first Lambda")
    # laplace draws no random numbers, but the benchmark's laplace workload
    # passes --seed, as it does to every workload: the flag stays until
    # that argv drops it
    _add_common(p, seed=True, out=True)
    p.set_defaults(func=cmd_laplace)

    p = sub.add_parser("ising-validate", help="Ising TV-vs-bound experiment")
    p.add_argument("--chains", type=_chains, default=6)
    p.add_argument("--iters", type=_positive, default=25)
    p.add_argument("--replicas", type=_positive, default=100_000)
    p.add_argument("--init", default="all-minus",
                   choices=["all-minus", "random"])
    p.add_argument("--explorer", default="gibbs", choices=["gibbs", "ideal"])
    _add_common(p, seed=True, out=True)
    p.set_defaults(func=cmd_ising_validate)

    p = sub.add_parser("clt", help="batch-means CLT check, bimodal target")
    p.add_argument("--runs", type=int, default=500)
    p.add_argument("--chains", type=_chains, default=7)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--level", type=float, default=0.01,
                   choices=AD_LEVELS.tolist())
    _add_common(p, seed=True, out=False)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("scaling", help="finite-chain tails vs their limits")
    p.add_argument("--lam", type=float, default=4.0)
    p.add_argument("--n-values", default="10,30,100",
                   help="comma-separated chain counts")
    _add_common(p, seed=False, out=False)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("diagnose", help="diagnostics over an exported trace")
    p.add_argument("--trace", required=True, help="path to trace.csv")
    p.add_argument("--burn-in", type=_burn_in, default=0.2)
    _add_common(p, seed=False, out=False)
    p.set_defaults(func=cmd_diagnose)

    return ap, dict(sub.choices)


def _config_argv(subparsers, argv):
    """Flag tokens for the values the --config file in `argv` sets.

    The file is found before the full parse, so it can supply a required
    flag.  The tokens go before the command-line flags, so explicit flags
    win (argparse keeps the last value) and every config value passes
    through its flag's type and choices.
    """
    pre = _Parser(prog="ptlab", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None or argv[0] not in subparsers:
        return []
    try:
        with open(path) as fh:
            conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config: {exc}") from exc
    if not isinstance(conf, dict):
        raise CliError("config must be a JSON object")
    # a "config" key would be overridden by the --config that named the file
    flags = {a.dest: a for a in subparsers[argv[0]]._actions
             if a.option_strings and a.dest != "config"}
    unknown = [k for k in conf if k.replace("-", "_") not in flags]
    if unknown:
        raise CliError(f"unknown config keys: {unknown}")
    tokens = []
    for key, val in conf.items():
        if val is None:
            raise CliError(f"config key {key!r} is null")
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
        args = parser.parse_args(argv[:1] + _config_argv(subparsers, argv)
                                 + argv[1:])
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
