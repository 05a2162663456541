"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PT_LAYERS = ("engine.", "explorers.", "core.", "models.", "gcb.",
             "diagnostics.", "bounds.")
ORACLE_LAYERS = ("laplace.", "walks.")


def bench(workload, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def worker(workload, sample_dir, traced=False):
    os.makedirs(sample_dir)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", workload, "--seed", "7", "--scale", "tiny",
           "--dir", str(sample_dir), "--spawned", repr(time.monotonic())]
    done = subprocess.run(cmd + ["--trace"] * traced, cwd=ROOT,
                          env=run.child_env(), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    with open(os.path.join(sample_dir, "result.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def plain_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("plain")
    return {w: (base / w, worker(w, base / w)) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= workloads.expected_checks(workload, "tiny")
    units = tracing.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    # the self times of all spans add up to the traced CLI call
    assert values["trace.self_sum_s"] == pytest.approx(values["trace.wall_s"])
    idle = ORACLE_LAYERS if workload in ("ising-validate", "tune-bimodal") \
        else PT_LAYERS
    assert all(v == 0 for k, v in values.items() if k.startswith(idle))
    assert values["cli.self_s"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_are_byte_identical(workload, plain_runs, tmp_path):
    plain_dir, _ = plain_runs[workload]
    traced = worker(workload, tmp_path / "traced", traced=True)
    assert traced["layers"]["trace.spans"] > 1
    files = workloads.output_files(workload)
    match, mismatch, errors = filecmp.cmpfiles(
        plain_dir / "out", tmp_path / "traced" / "out", files, shallow=False)
    assert match == files and not mismatch and not errors


def failed_frac(workload, plain_runs, **oracle):
    out_dir, result = plain_runs[workload]
    with open(out_dir / "stdout.json") as fh:
        summary = json.load(fh)
    checks = workloads.Checks()
    workloads.CHECKERS[workload](str(out_dir / "out"), summary, checks,
                                 **oracle)
    assert checks.attempted == result["attempted"]
    return checks.failed / checks.attempted


def test_oracles_pass_on_real_outputs(plain_runs):
    for workload in workloads.WORKLOADS:
        assert failed_frac(workload, plain_runs) == 0.0, workload


def test_wrong_oracle_values_fail_checks(plain_runs):
    from ptlab.bounds import rpt_infinite_tail

    wrong_table = {**workloads.C_TABLE, 1.0: workloads.C_TABLE[1.0] + 0.1}
    assert failed_frac("laplace", plain_runs, table=wrong_table) > 0
    assert failed_frac("hitting-bm", plain_runs,
                       tail=lambda t: rpt_infinite_tail(t) + 0.1) > 0
    assert failed_frac("tune-bimodal", plain_runs,
                       lam_ref=workloads.BIMODAL_LAMBDA + 0.5) > 0
    assert failed_frac("ising-validate", plain_runs,
                       lam_ref=workloads.ISING_LAMBDA + 1.0) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laplace",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
