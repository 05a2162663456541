"""The benchmark's traced mode wraps ptlab functions by name; a rename or
deletion of any of them must fail here, in the fast suite."""

import importlib.util
import inspect
import os

import numpy as np
import pytest

import ptlab.engine as engine
import ptlab.experiments as experiments
import ptlab.walks as walks

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_restore_every_hook():
    tracing = _load_tracing()
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
    tracing = _load_tracing()
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
