"""Traced mode: spans and counts recorded from outside the program.

Each wrapper is installed at the name its caller looks up (the module
global or class attribute read at call time), so ptlab itself is unchanged.
Spans are kept in memory as (name, start, end, parent, run id) and written
out when the traced call ends; the per-layer metrics are computed from them.
"""

import dataclasses
import functools
import inspect
import json
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []   # [name, start, end, parent index or -1, run id]
        self.counts = {}
        self._stack = []
        self._patches = []

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, after=None):
        """fn timed as span `name`; after(args, kwargs, result) adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.run_id]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def replace(self, owner, attr, new):
        """Set owner.attr to new until restore()."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr, name, after=None):
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def install(tracer):
    """Wrap the public functions of every ptlab module the workloads reach."""
    import ptlab.bounds as bounds
    import ptlab.cli as cli
    import ptlab.core as core
    import ptlab.engine as engine
    import ptlab.experiments as experiments
    import ptlab.explorers as explorers
    import ptlab.gcb as gcb
    import ptlab.laplace as laplace
    import ptlab.rng as rng
    import ptlab.walks as walks

    def pt_counts(args, kwargs, trace):
        tracer.add("engine.replica_iters", trace.n_iters * trace.n_replicas
                   * trace.betas.size)
        tracer.add("engine.swaps_accepted", int(trace.accepts.sum()))
        # pair n is proposed at iteration t when n % 2 equals the parity
        parity = np.asarray(trace.parities[:trace.n_iters])
        pairs = np.arange(trace.n_intervals) % 2
        if parity.ndim == 1:
            proposed = (pairs[None, :] == parity[:, None]).sum() * trace.n_replicas
        else:
            proposed = (pairs[None, :, None] == parity[:, None, :]).sum()
        tracer.add("engine.swaps_proposed", int(proposed))

    for owner in (engine, experiments, cli):
        tracer.patch(owner, "run_pt", "engine.run_pt", pt_counts)
    tracer.patch(engine, "communication_step", "engine.communication_step")
    tracer.patch(engine, "update_index_process", "engine.update_index_process")

    def gibbs_counts(args, kwargs, result):
        kernel, x = args[0], args[1]
        tracer.add("explorers.gibbs.site_updates",
                   kernel.sweeps * np.asarray(x).shape[0] * np.asarray(x).shape[1])

    tracer.patch(explorers.IsingGibbsExplorer, "step", "explorers.gibbs.step",
                 gibbs_counts)
    tracer.patch(explorers.IdealGridExplorer, "step", "explorers.grid.step")
    tracer.patch(explorers.IIDReferenceExplorer, "step", "explorers.iid.step")
    # the grid explorer calls log_path_density once per cached CDF it builds
    tracer.patch(explorers, "log_path_density", "explorers.cdf_build")

    for owner in (engine, core, explorers):
        tracer.patch(owner, "energy", "core.energy")
    tracer.patch(engine, "swap_acceptance", "core.swap_acceptance")

    def traced_model(factory):
        def make(*args, **kwargs):
            model = factory(*args, **kwargs)
            return dataclasses.replace(model, log_target_unnorm=tracer.wrap(
                "models.log_target", model.log_target_unnorm))

        return make

    for attr in ("ising_model", "bimodal_pair"):
        tracer.replace(experiments, attr,
                       traced_model(getattr(experiments, attr)))
    tracer.patch(experiments, "codes_from_spins", "models.codes_from_spins")

    original_rounds = experiments.tuning_rounds

    def tuning_rounds(run_fn, *args, **kwargs):
        def counted(*a, **kw):
            tracer.add("gcb.rounds")
            return run_fn(*a, **kw)

        return original_rounds(counted, *args, **kwargs)

    tracer.replace(experiments, "tuning_rounds",
                   tracer.wrap("gcb.tuning_rounds", tuning_rounds))
    tracer.patch(experiments, "empirical_tv_discrete", "diagnostics.empirical_tv")
    tracer.patch(bounds, "hitting_tail", "bounds.hitting_tail")

    for name in ("ising_tv_experiment", "tune_ising_schedule",
                 "tune_bimodal_schedule", "bimodal_gcb_estimate"):
        for owner in (cli, experiments):
            if hasattr(owner, name):
                tracer.patch(owner, name, f"experiments.{name}")

    tracer.patch(laplace, "estimate_C_sup", "laplace.estimate_C_sup")
    tracer.patch(laplace, "estimate_C", "laplace.estimate_C")
    tracer.patch(laplace, "eval_F", "laplace.eval_F",
                 lambda a, kw, r: tracer.add("laplace.F_evals", int(np.size(a[0]))))

    bm_signature = inspect.signature(walks.sim_reflected_bm)

    def bm_steps(args, kwargs, times):
        bound = bm_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        dt, t_max = bound.arguments["dt"], bound.arguments["t_max"]
        steps = np.rint(np.minimum(np.asarray(times), t_max) / dt)
        tracer.add("walks.bm.replica_steps", int(steps.sum()))

    tracer.patch(walks, "sim_reflected_bm", "walks.sim_reflected_bm", bm_steps)
    tracer.patch(walks, "survival_curve", "walks.survival_curve")

    for owner in (rng, engine, experiments, walks, gcb):
        tracer.patch(owner, "make_stream", "rng.make_stream")


# per-layer metric name -> unit; layer_metrics computes the values
PER_LAYER = {
    "engine.run_pt.s": "s",
    "engine.run_pt.self_s": "s",
    "engine.communication_step.s": "s",
    "engine.communication_step.calls": "count",
    "engine.update_index_process.s": "s",
    "engine.replica_iters": "count",
    "engine.swap_accept_frac": "ratio",
    "explorers.gibbs.step_s": "s",
    "explorers.gibbs.calls": "count",
    "explorers.gibbs.site_updates": "count",
    "explorers.grid.step_s": "s",
    "explorers.grid.calls": "count",
    "explorers.grid.cdf_builds": "count",
    "explorers.iid.step_s": "s",
    "core.energy.s": "s",
    "core.energy.calls": "count",
    "core.swap_acceptance.s": "s",
    "core.swap_acceptance.calls": "count",
    "models.log_target.s": "s",
    "models.codes_from_spins.s": "s",
    "gcb.tuning_rounds.s": "s",
    "gcb.rounds": "count",
    "diagnostics.empirical_tv.s": "s",
    "bounds.hitting_tail.s": "s",
    "laplace.estimate_C_sup.s": "s",
    "laplace.eval_F.s": "s",
    "laplace.F_evals": "count",
    "laplace.quadrature_self_s": "s",
    "walks.sim_reflected_bm.s": "s",
    "walks.bm.replica_steps": "count",
    "walks.survival_curve.self_s": "s",
    "rng.make_stream.calls": "count",
    "rng.make_stream.s": "s",
    "cli.self_s": "s",
    "experiments.self_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced call from its spans and counts.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly, so the self times of all spans add up to
    the duration of the root span (the CLI call).
    """
    total, self_s, calls = {}, {}, {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        calls[name] = calls.get(name, 0) + 1

    def s(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    proposed = counts.get("engine.swaps_proposed", 0)
    m = {
        "engine.run_pt.s": s("engine.run_pt"),
        "engine.run_pt.self_s": self_s.get("engine.run_pt", 0.0),
        "engine.communication_step.s": s("engine.communication_step"),
        "engine.communication_step.calls": n("engine.communication_step"),
        "engine.update_index_process.s": s("engine.update_index_process"),
        "engine.replica_iters": counts.get("engine.replica_iters", 0),
        "engine.swap_accept_frac": (counts.get("engine.swaps_accepted", 0)
                                    / proposed if proposed else 0.0),
        "explorers.gibbs.step_s": s("explorers.gibbs.step"),
        "explorers.gibbs.calls": n("explorers.gibbs.step"),
        "explorers.gibbs.site_updates": counts.get(
            "explorers.gibbs.site_updates", 0),
        "explorers.grid.step_s": s("explorers.grid.step"),
        "explorers.grid.calls": n("explorers.grid.step"),
        "explorers.grid.cdf_builds": n("explorers.cdf_build"),
        "explorers.iid.step_s": s("explorers.iid.step"),
        "core.energy.s": s("core.energy"),
        "core.energy.calls": n("core.energy"),
        "core.swap_acceptance.s": s("core.swap_acceptance"),
        "core.swap_acceptance.calls": n("core.swap_acceptance"),
        "models.log_target.s": s("models.log_target"),
        "models.codes_from_spins.s": s("models.codes_from_spins"),
        "gcb.tuning_rounds.s": s("gcb.tuning_rounds"),
        "gcb.rounds": counts.get("gcb.rounds", 0),
        "diagnostics.empirical_tv.s": s("diagnostics.empirical_tv"),
        "bounds.hitting_tail.s": s("bounds.hitting_tail"),
        "laplace.estimate_C_sup.s": s("laplace.estimate_C_sup"),
        "laplace.eval_F.s": s("laplace.eval_F"),
        "laplace.F_evals": counts.get("laplace.F_evals", 0),
        "laplace.quadrature_self_s": self_s.get("laplace.estimate_C", 0.0),
        "walks.sim_reflected_bm.s": s("walks.sim_reflected_bm"),
        "walks.bm.replica_steps": counts.get("walks.bm.replica_steps", 0),
        "walks.survival_curve.self_s": self_s.get("walks.survival_curve", 0.0),
        "rng.make_stream.calls": n("rng.make_stream"),
        "rng.make_stream.s": s("rng.make_stream"),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "experiments.self_s": sum(v for k, v in self_s.items()
                                  if k.startswith("experiments.")),
        "trace.wall_s": s("cli.main"),
        "trace.self_sum_s": sum(self_s.values()),
        "trace.spans": len(spans),
    }
    return m
