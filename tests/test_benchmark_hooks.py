"""The benchmark's traced mode wraps ptlab functions by name, and its
workloads run ptlab through fixed CLI argv; a rename or deletion of any of
those functions, or a CLI change that rejects one of those argv, must fail
here, in the fast suite."""

import importlib.util
import inspect
import os

import numpy as np
import pytest

from ptlab.cli import build_parser
import ptlab.engine as engine
import ptlab.experiments as experiments
import ptlab.walks as walks

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


def _load(name):
    """perfbench/<name>.py as a module, read from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_restore_every_hook():
    tracing = _load("tracing")
    originals = (engine.run_pt, engine.update_index_process,
                 experiments.tuning_rounds)
    tracer = tracing.Tracer(0)
    try:
        tracing.install(tracer)
        assert engine.run_pt is not originals[0]
        assert engine.update_index_process is not originals[1]
    finally:
        tracer.restore()
    assert (engine.run_pt, engine.update_index_process,
            experiments.tuning_rounds) == originals


@pytest.mark.parametrize("factory, x", [
    ("bimodal_pair", np.array([-100.0, 0.0, 100.0])),
    ("ising_model", np.full(3, 0xFFFF, dtype=np.uint16)),  # all spins +1
])
def test_model_log_target_is_traced(factory, x):
    # models.log_target.s is timed only through the models experiments builds
    tracing = _load("tracing")
    tracer = tracing.Tracer(0)
    try:
        tracing.install(tracer)
        log_target = getattr(experiments, factory)().log_target_unnorm
        assert log_target.__wrapped__.__name__ == "log_target_unnorm"
        log_target(x)
    finally:
        tracer.restore()
    assert [span[0] for span in tracer.spans] == ["models.log_target"]


def test_reflected_bm_parameters_read_by_name():
    # the tracer binds each call as (rng, size), applies the defaults and
    # reads dt and t_max by name; binding fails if either lost its default
    bound = inspect.signature(walks.sim_reflected_bm).bind(None, 10)
    bound.apply_defaults()
    assert {"dt", "t_max"} <= set(bound.arguments)


@pytest.mark.parametrize("scale", ["full", "tiny"])
@pytest.mark.parametrize("workload", _load("workloads").WORKLOADS)
def test_workload_argv_parses(workload, scale, tmp_path):
    # a parse error raises CliError; laplace declares --seed for this argv
    argv = _load("workloads").build_argv(workload, 0, str(tmp_path), scale)
    args = build_parser()[0].parse_args(argv)
    assert (args.command, args.seed, args.out) == (argv[0], 0, str(tmp_path))
