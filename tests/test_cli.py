import argparse
import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from ptlab.bounds import nrpt_infinite_tail
from ptlab.cli import build_parser, export_run, main, read_trace_csv
from ptlab.core import AnnealingSchedule
from ptlab.engine import PTConfig, run_pt
from ptlab.experiments import MODELS, gaussian_equal_rate_mu
from ptlab.explorers import GaussianPathExplorer
from ptlab.models import gaussian_shift_pair


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def declared(command):
    """The dests of the flags a subcommand declares, --help aside."""
    return {a.dest for a in build_parser()[1][command]._actions
            if a.option_strings and a.dest != "help"}


# flags these subcommands do not declare, since their handlers do not read them
REMOVED_FLAGS = (("bounds", "--seed", "3"), ("scaling", "--seed", "3"),
                 ("diagnose", "--seed", "3"), ("gcb", "--out", "out"),
                 ("clt", "--out", "out"), ("scaling", "--out", "out"),
                 ("diagnose", "--out", "out"))


def write_trace(path):
    """A 50-iteration, two-chain trace.csv in export_run's layout."""
    path.write_text("t,parity,V0,V1,I0,I1,eps0,eps1,accept0\n"
                    + "".join(f"{t},{t % 2},0.5,{t % 7},0,1,1,-1,0\n"
                              for t in range(50)))


def trace_flag(command):
    # diagnose requires --trace, which argparse checks before stray flags
    return ["--trace", "t.csv"] if command == "diagnose" else []


class TestExitCodes:
    def test_success(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, [
            "bounds", "--N", "4", "--r", "0.4", "--tmax", "10",
            "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads(out)
        assert summary["command"] == "bounds"
        assert os.path.exists(summary["files"][0])

    @pytest.mark.parametrize("argv, config, needle", [
        pytest.param([cmd, "--model", "ising-typo"], None, "ising-typo",
                     id=cmd) for cmd in ("sample", "tune", "gcb")
    ] + [
        # one chain once failed deep in AnnealingSchedule, naming no flag
        pytest.param([cmd, "--chains", "1"], None, "--chains",
                     id=f"{cmd}-chains=1")
        for cmd in ("sample", "tune", "gcb", "ising-validate", "clt")
    ] + [
        pytest.param([cmd, "--burn-in", value], None, "--burn-in",
                     id=f"{cmd}-burn-in={value}")
        for cmd in ("sample", "gcb") for value in ("-0.5", "1.0")
    ] + [
        # NaN fails every order test; it once ran, or failed in numpy
        pytest.param(["sample", "--model", model, "--chains", "3",
                      "--iters", "10", "--schedule", "0,nan,1"], None,
                     "schedule", id=f"sample-{model}-schedule-nan")
        for model in ("ising", "ising-ideal", "bimodal")
    ] + [
        pytest.param(["diagnose", "--trace", "t.csv", "--burn-in", "-0.5"],
                     None, "--burn-in", id="diagnose-burn-in=-0.5"),
        pytest.param(["sample"], {"burn-in": 1.0}, "--burn-in",
                     id="sample-config-burn-in=1.0"),
    ] + [
        pytest.param(["tune", "--rounds", value], None, "rounds",
                     id=f"tune-rounds={value}") for value in ("0", "-2")
    ] + [
        pytest.param(["laplace", "--lam", ","], None, "empty",
                     id="laplace-lam-empty"),
        pytest.param(["laplace", "--lam", ",", "--fgrid"], None, "empty",
                     id="laplace-lam-empty-fgrid"),
    ] + [
        # NaN and inf once hung or passed silently
        pytest.param(["laplace", "--lam", value], None, "lam",
                     id=f"laplace-lam={value}") for value in ("nan", "inf")
    ] + [
        pytest.param(["hitting", "--process", "pdmp", "--lam", value], None,
                     "lam", id=f"hitting-pdmp-lam={value}")
        for value in ("nan", "inf")
    ] + [
        pytest.param(["hitting", "--process", "bm", "--dt", "inf"], None,
                     "dt", id="hitting-bm-dt=inf"),
        pytest.param(["diagnose", "--trace", "no-such-dir/trace.csv"], None,
                     "cannot read trace", id="diagnose-missing-trace"),
    ] + [
        pytest.param(["hitting"] + flags, None, needle,
                     id="hitting" + "".join(flags))
        for flags, needle in ((["--points", "0"], "--points"),
                              (["--tmin", "5", "--tmax", "1"], "--tmin"),
                              (["--tmin", "-1"], "--tmin"),
                              (["--tmax", "inf"], "--tmax"))
    ] + [
        # a flag the process does not read is an error, not ignored
        pytest.param(["hitting", "--process", process, flag, value], None,
                     flag, id=f"hitting-{process}{flag}={value}")
        for process, flag, value in (("nrpt", "--lam", "nan"),
                                     ("nrpt", "--dt", "inf"),
                                     ("rpt", "--lam", "4"),
                                     ("bm", "--lam", "4"),
                                     ("pdmp", "--N", "30"),
                                     ("bm", "--r", "0.1"),
                                     ("pdmp", "--dt", "1e-4"))
    ] + [
        # a negative count once failed in numpy, naming no flag
        pytest.param(["ising-validate", flag, value], None, flag,
                     id=f"ising-validate{flag}={value}")
        for flag in ("--replicas", "--iters") for value in ("-5", "0")
    ] + [
        pytest.param(["ising-validate"], {"replicas": -5}, "--replicas",
                     id="ising-validate-config-replicas=-5"),
    ] + [
        # counts are checked at parse time, not after the tuning rounds
        pytest.param([cmd, flag, value], None, flag,
                     id=f"{cmd}{flag}={value}")
        for cmd in ("sample", "gcb") for flag in ("--replicas", "--iters")
        for value in ("-3", "0")
    ] + [
        pytest.param(["gcb"], {"iters": -3}, "--iters",
                     id="gcb-config-iters=-3"),
    ] + [
        pytest.param(["hitting", "--replicas", value], None, "--replicas",
                     id=f"hitting-replicas={value}") for value in ("-5", "99")
    ] + [
        # scaling runs no Monte Carlo, so it has no replica count to take
        pytest.param(["scaling", "--replicas", "2000"], None, "--replicas",
                     id="scaling-replicas=2000"),
        pytest.param(["scaling"], {"replicas": 2000}, "replicas",
                     id="scaling-config-replicas=2000"),
    ] + [
        pytest.param(["bounds", "--tmax", "-3"], None, "--tmax",
                     id="bounds-tmax=-3"),
    ] + [
        pytest.param(["bounds", flag, value], None, needle,
                     id=f"bounds{flag}={value}")
        for flag, value, needle in (("--r", "1.0", "r must lie in [0, 1)"),
                                    ("--r", "nan", "r must lie in [0, 1)"),
                                    ("--N", "0", "n >= 1"))
    ] + [
        # the index walk takes the exact tail's check
        pytest.param(["hitting", "--process", process, flag, value], None,
                     needle, id=f"hitting-{process}{flag}={value}")
        for process in ("nrpt", "rpt")
        for flag, value, needle in (("--r", "1.0", "r must lie in [0, 1)"),
                                    ("--N", "0", "n >= 1"))
    ] + [
        # each is rejected before any tuning or simulation at default sizes
        pytest.param(["clt", "--iters", "500"], None, "n_iters",
                     id="clt-iters=500"),
        pytest.param(["clt", "--runs", "1"], None, "n_runs",
                     id="clt-runs=1"),
        pytest.param(["clt", "--level", "0.5"], None, "--level",
                     id="clt-level=0.5"),
        pytest.param(["scaling", "--n-values", "0"], None, "N >= 1",
                     id="scaling-n-values=0"),
        pytest.param(["scaling", "--n-values", "10,x"], None, "10,x",
                     id="scaling-n-values=10,x"),
        pytest.param(["scaling", "--n-values", "2", "--lam", "4"], None,
                     "lam/N < 1", id="scaling-n-values=2-lam=4"),
        # once accepted, then overridden by the --config naming the file
        pytest.param(["bounds"], {"config": "other.json"}, "'config'",
                     id="bounds-config-config=other.json"),
    ] + [
        # a flag the handler would ignore is not declared, so it is invalid
        pytest.param([cmd] + trace_flag(cmd) + [flag, value], None, flag,
                     id=f"{cmd}{flag}={value}")
        for cmd, flag, value in REMOVED_FLAGS
    ] + [
        pytest.param([cmd] + trace_flag(cmd), {flag[2:]: value},
                     f"'{flag[2:]}'", id=f"{cmd}-config-{flag[2:]}={value}")
        for cmd, flag, value in REMOVED_FLAGS
    ])
    def test_validation_error(self, capsys, tmp_path, monkeypatch, argv,
                              config, needle):
        # relative paths ("out", the default output directory) land here
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / "out"
        if "out" in declared(argv[0]):
            argv = argv + ["--out", str(out_dir)]
        if config is not None:
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps(config))
            argv += ["--config", str(conf)]
        rc, out, err = run_cli(capsys, argv)
        assert rc == 1
        payload = json.loads(err)
        assert payload["kind"] == "validation"
        assert needle in payload["error"]
        assert out == "" and set(os.listdir(tmp_path)) <= {"conf.json"}

    def test_blank_energies_rejected(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,parity,V0,V1,I0,I1,eps0,eps1,accept0\n"
                         + "".join(f"{t},{t % 2},,,0,1,1,-1,0\n"
                                   for t in range(50)))
        rc, out, err = run_cli(capsys, ["diagnose", "--trace", str(trace)])
        assert rc == 1
        assert json.loads(err)["kind"] == "validation"
        assert out == ""

    def test_infinite_energy_rejected(self, capsys, tmp_path):
        # one inf in the target column after burn-in: the lag-1
        # autocorrelation is undefined, and NaN is not JSON
        trace = tmp_path / "trace.csv"
        trace.write_text("t,parity,V0,V1,I0,I1,eps0,eps1,accept0\n"
                         + "".join(f"{t},{t % 2},0.5,"
                                   f"{'inf' if t == 30 else t % 7},"
                                   f"0,1,1,-1,0\n" for t in range(50)))
        rc, out, err = run_cli(capsys, ["diagnose", "--trace", str(trace)])
        assert rc == 1
        assert json.loads(err)["kind"] == "validation"
        assert out == ""

    def test_numerical_failure_is_runtime_error(self, capsys, tmp_path,
                                                monkeypatch):
        def singular(*args, **kwargs):
            raise FloatingPointError("D(1, z) numerically singular")

        monkeypatch.setattr("ptlab.laplace.estimate_C_sup", singular)
        rc, out, err = run_cli(capsys, [
            "laplace", "--lam", "1", "--out", str(tmp_path)])
        assert rc == 2
        payload = json.loads(err)
        assert payload["kind"] == "runtime"
        assert "singular" in payload["error"]

    def test_laplace_checks_every_lam_before_any_curve(self, capsys,
                                                       tmp_path, monkeypatch):
        def never(lam):
            raise AssertionError(f"C curve computed for lam={lam}")

        monkeypatch.setattr("ptlab.laplace.estimate_C_sup", never)
        rc, out, err = run_cli(capsys, [
            "laplace", "--lam", "1,nan", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert json.loads(err)["kind"] == "validation"
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", list(build_parser()[1]))
    def test_help(self, capsys, command):
        rc, out, _ = run_cli(capsys, [command, "--help"])
        assert rc == 0
        assert "usage:" in out

    def test_argparse_usage_error(self, capsys):
        rc, out, err = run_cli(capsys, ["bounds", "--N", "not-a-number"])
        assert rc == 1


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"N": 3, "r": 0.5, "tmax": 8}))
        rc, out, _ = run_cli(capsys, [
            "bounds", "--config", str(conf), "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads(out)
        assert summary["N"] == 3 and summary["r"] == 0.5

    def test_flags_override_config(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"N": 3, "r": 0.5}))
        rc, out, _ = run_cli(capsys, [
            "bounds", "--config", str(conf), "--r", "0.2",
            "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads(out)
        assert summary["N"] == 3 and summary["r"] == 0.2

    def test_unknown_keys_rejected(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"bogus": 1}))
        rc, _, err = run_cli(capsys, ["bounds", "--config", str(conf)])
        assert rc == 1
        assert "bogus" in json.loads(err)["error"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_values_are_typed(self, capsys, tmp_path, source):
        def sample(key, value):
            argv = ["sample", "--model", "bimodal", "--iters", "20",
                    "--out", str(tmp_path)]
            if source == "flag":
                return run_cli(capsys, argv + [f"--{key}", value])
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({key: value}))
            return run_cli(capsys, argv + ["--config", str(conf)])

        rc, _, err = sample("iters", "abc")
        assert rc == 1 and json.loads(err)["kind"] == "validation"
        rc, out, _ = sample("chains", "5")
        assert rc == 0
        assert len(json.loads(out)["rejection_rates"]) == 4

    def test_null_value_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"out": None}))
        rc, out, err = run_cli(capsys, ["bounds", "--config", str(conf)])
        assert rc == 1
        payload = json.loads(err)
        assert payload["kind"] == "validation" and "'out'" in payload["error"]
        assert out == "" and not (tmp_path / "None").exists()

    def test_config_supplies_a_required_flag(self, capsys, tmp_path):
        # argparse checks required flags, so the config is read before it
        trace = tmp_path / "trace.csv"
        write_trace(trace)
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"trace": str(trace)}))
        by_flag = run_cli(capsys, ["diagnose", "--trace", str(trace)])
        by_config = run_cli(capsys, ["diagnose", "--config", str(conf)])
        assert by_flag[0] == 0 and json.loads(by_flag[1])["n_iters"] == 50
        assert by_config == by_flag

    @pytest.mark.parametrize("config", [None, {"burn-in": 0.5}])
    def test_missing_required_flag(self, capsys, tmp_path, config):
        argv = ["diagnose"]
        if config is not None:
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps(config))
            argv += ["--config", str(conf)]
        rc, out, err = run_cli(capsys, argv)
        assert rc == 1 and out == ""
        payload = json.loads(err)
        assert payload["kind"] == "validation"
        assert "--trace" in payload["error"]

    def test_malformed_config(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text("{not json")
        rc, _, err = run_cli(capsys, ["bounds", "--config", str(conf)])
        assert rc == 1


class TestDeterminism:
    def _hash_dir(self, d):
        out = {}
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    def test_sample_outputs_byte_identical(self, capsys, tmp_path):
        args = ["sample", "--model", "bimodal", "--chains", "5",
                "--iters", "80", "--seed", "13"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert self._hash_dir(a) == self._hash_dir(b)

    def test_seed_changes_output(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["sample", "--model", "bimodal", "--chains", "5",
                "--iters", "80"]
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(b)]) == 0
        capsys.readouterr()
        assert self._hash_dir(a) != self._hash_dir(b)

    def test_tune_rounds_default_to_the_models_own(self, capsys, tmp_path):
        args = ["tune", "--model", "ising-ideal", "--chains", "4",
                "--seed", "0"]
        a, b = tmp_path / "a", tmp_path / "b"
        rc, out_a, _ = run_cli(capsys, args + ["--out", str(a)])
        assert rc == 0
        rc, out_b, _ = run_cli(capsys, args + ["--rounds", "3",
                                               "--out", str(b)])
        assert rc == 0
        assert json.loads(out_a)["rounds"] == 3
        assert out_a.replace(str(a), str(b)) == out_b
        assert self._hash_dir(a) == self._hash_dir(b)

    def test_tune_outputs_byte_identical(self, capsys, tmp_path):
        args = ["tune", "--model", "bimodal", "--chains", "5",
                "--rounds", "2", "--seed", "13"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert self._hash_dir(a) == self._hash_dir(b)


class TestOutputDir:
    def test_env_var_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PTLAB_OUTDIR", str(tmp_path / "envout"))
        rc, out, _ = run_cli(capsys, ["bounds", "--N", "3", "--r", "0.4",
                                      "--tmax", "5"])
        assert rc == 0
        assert os.path.exists(tmp_path / "envout" / "bounds.csv")


class TestSubcommandOutputs:
    def test_sample_then_diagnose(self, capsys, tmp_path):
        # 1300 iterations: diagnose must read every one, and the batch-means
        # variance needs 1000 after the default 20% burn-in
        rc, out, _ = run_cli(capsys, [
            "sample", "--model", "bimodal", "--chains", "5", "--iters", "1300",
            "--out", str(tmp_path)])
        assert rc == 0
        rc, out, _ = run_cli(capsys, [
            "diagnose", "--trace", str(tmp_path / "trace.csv")])
        assert rc == 0
        summary = json.loads(out)
        assert abs(summary["lag1_energy_autocorr"]) <= 1.0
        assert summary["n_iters"] == 1300
        assert "asymptotic_variance" in summary

    def test_bounds_csv_schema(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, [
            "bounds", "--scheme", "rpt", "--N", "3", "--r", "0.4",
            "--tmax", "12", "--out", str(tmp_path)])
        assert rc == 0
        data = np.genfromtxt(tmp_path / "bounds.csv", delimiter=",",
                             names=True)
        assert set(data.dtype.names) == {"t", "exact_tail", "coarse_bound",
                                         "infinite_limit"}
        assert data["t"].size == 13

    def test_bounds_nrpt_infinite_limit_is_the_continuum_tail(self, capsys,
                                                             tmp_path):
        rc, out, _ = run_cli(capsys, ["bounds", "--scheme", "nrpt",
                                      "--out", str(tmp_path)])
        assert rc == 0
        data = np.genfromtxt(tmp_path / "bounds.csv", delimiter=",",
                             names=True)
        # default flags N = 6, r = 0.46: Lambda = 2.76, t/N from 0 to 25/6
        np.testing.assert_array_equal(data["infinite_limit"],
                                      nrpt_infinite_tail(6 * 0.46,
                                                         data["t"] / 6))
        np.testing.assert_allclose(
            data["infinite_limit"][::5],
            [1.0, 1.0, 0.7429, 0.5602, 0.4232, 0.3197], rtol=0, atol=5e-5)

    def test_hitting_csv(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, [
            "hitting", "--process", "pdmp", "--lam", "2.0",
            "--replicas", "2000", "--tmin", "1", "--tmax", "5",
            "--points", "5", "--out", str(tmp_path)])
        assert rc == 0
        data = np.genfromtxt(tmp_path / "survival_pdmp.csv", delimiter=",",
                             names=True)
        assert np.all(np.diff(data["survival"]) <= 0)

    def test_gcb_burn_in_is_used(self, capsys):
        def lam_hat(burn_in):
            rc, out, _ = run_cli(capsys, [
                "gcb", "--model", "bimodal", "--chains", "3", "--iters", "64",
                "--replicas", "200", "--burn-in", burn_in])
            assert rc == 0
            return json.loads(out)["lambda_hat"]

        assert lam_hat("0.2") != lam_hat("0.9")

    def test_scaling_summary(self, capsys):
        rc, out, _ = run_cli(capsys, ["scaling", "--n-values", "10,30"])
        assert rc == 0
        summary = json.loads(out)
        assert list(summary) == ["command", "nrpt_sup_diff_N10",
                                 "rpt_sup_diff_N10", "nrpt_sup_diff_N30",
                                 "rpt_sup_diff_N30"]
        assert all(0.0 <= summary[k] <= 1.0 for k in list(summary)[1:])

    def test_clt_summary(self, capsys, monkeypatch):
        # small tuning runs; the recipe's work is covered in
        # test_acceptance.py
        spec = MODELS["bimodal"]
        monkeypatch.setitem(MODELS, "bimodal", dataclasses.replace(
            spec, base_iters=4, tune_replicas=16))
        rc, out, _ = run_cli(capsys, [
            "clt", "--runs", "8", "--chains", "3", "--iters", "1000"])
        assert rc == 0
        summary = json.loads(out)
        assert summary["command"] == "clt" and summary["n_runs"] == 8
        assert summary["critical_value"] > 0.0
        assert isinstance(summary["normality_passed"], bool)

    def test_laplace_table(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, [
            "laplace", "--lam", "1", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads(out)
        assert abs(summary["table"]["1.0"]["C"] - 0.632) < 0.02


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of each attribute read once
    `reads` is set to a set."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


class TestEveryDeclaredFlagIsRead:
    """A flag its handler never reads does nothing, so it must not be
    declared: each subcommand runs at a tiny size and must read every
    flag it takes, --config aside (main reads that one)."""

    ARGV = {
        "sample": ["--chains", "3", "--iters", "10"],
        "tune": ["--model", "ising-ideal", "--chains", "3", "--rounds", "1"],
        "gcb": ["--model", "ising-ideal", "--chains", "3", "--iters", "8",
                "--replicas", "16"],
        "bounds": ["--tmax", "5"],
        "hitting": ["--process", "pdmp", "--replicas", "100", "--tmax", "3",
                    "--points", "3"],
        "laplace": ["--lam", "1"],
        "ising-validate": ["--explorer", "ideal", "--chains", "3",
                           "--iters", "2", "--replicas", "16"],
        "clt": ["--runs", "4", "--chains", "3", "--iters", "1000"],
        "scaling": ["--n-values", "10"],
        "diagnose": ["--trace", "trace.csv"],
    }
    # laplace draws no random numbers, but the benchmark's laplace workload
    # passes --seed to it (perfbench/workloads.py, build_argv)
    UNREAD = {"laplace": {"seed"}}

    @pytest.mark.parametrize("command", list(build_parser()[1]))
    def test_reads_every_declared_flag(self, command, capsys, tmp_path,
                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PTLAB_OUTDIR", str(tmp_path))
        for name, spec in MODELS.items():
            monkeypatch.setitem(MODELS, name, dataclasses.replace(
                spec, base_iters=4, tune_replicas=16))
        write_trace(tmp_path / "trace.csv")
        args = build_parser()[0].parse_args([command] + self.ARGV[command],
                                            namespace=ReadRecorder())
        args.reads = set()
        args.func(args)
        capsys.readouterr()
        unread = declared(command) - {"config"} - args.reads
        assert unread == self.UNREAD.get(command, set())


class TestExportRoundTrip:
    @pytest.fixture
    def trace(self):
        n, r = 3, 0.4
        mu = gaussian_equal_rate_mu(n, r)
        cfg = PTConfig("nrpt", AnnealingSchedule.uniform(n), n_iters=60,
                       n_replicas=2, seed=0)
        return run_pt(cfg, gaussian_shift_pair(mu), GaussianPathExplorer(mu))

    def test_files_written(self, trace, tmp_path):
        files = export_run(trace, str(tmp_path))
        names = {os.path.basename(f) for f in files}
        assert names == {"trace.csv", "pairs.csv", "summary.json"}

    def test_energy_round_trip_lossless(self, trace, tmp_path):
        export_run(trace, str(tmp_path))
        cols = read_trace_csv(str(tmp_path / "trace.csv"))
        for c in range(4):
            np.testing.assert_array_equal(cols[f"V{c}"],
                                          trace.energies[:, c, 0])

    @pytest.mark.parametrize("scheme", ["nrpt", "rpt"])
    def test_slot_columns_are_replica_0(self, scheme, tmp_path):
        mu = gaussian_equal_rate_mu(3, 0.4)
        cfg = PTConfig(scheme, AnnealingSchedule.uniform(3), n_iters=60,
                       n_replicas=3, seed=0)
        trace = run_pt(cfg, gaussian_shift_pair(mu), GaussianPathExplorer(mu))
        export_run(trace, str(tmp_path))
        cols = read_trace_csv(str(tmp_path / "trace.csv"))
        for c in range(4):
            np.testing.assert_array_equal(cols[f"I{c}"], trace.index[1:, c, 0])
            np.testing.assert_array_equal(cols[f"eps{c}"],
                                          trace.direction[1:, c, 0])

    @pytest.mark.parametrize("scheme", ["nrpt", "rpt"])
    @pytest.mark.parametrize("n_replicas", [1, 9])
    def test_accept_columns_are_replica_0(self, scheme, n_replicas, tmp_path):
        # replica 0 is bit 0 of the first byte, which it shares with
        # replicas 1-7 when R > 1
        mu = gaussian_equal_rate_mu(3, 0.4)
        cfg = PTConfig(scheme, AnnealingSchedule.uniform(3), n_iters=60,
                       n_replicas=n_replicas, seed=1)
        trace = run_pt(cfg, gaussian_shift_pair(mu), GaussianPathExplorer(mu))
        export_run(trace, str(tmp_path))
        cols = read_trace_csv(str(tmp_path / "trace.csv"))
        accepts = trace.accepts[:, :, 0].astype(np.int8)
        assert accepts.any()
        for p in range(3):
            np.testing.assert_array_equal(cols[f"accept{p}"], accepts[:, p])

    def test_summary_contents(self, trace, tmp_path):
        export_run(trace, str(tmp_path))
        with open(tmp_path / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["scheme"] == "nrpt"
        assert summary["n_iters"] == 60
        assert len(summary["rejection_rates"]) == 3
        assert "restart_count" in summary
