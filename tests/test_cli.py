import hashlib
import json
import os

import numpy as np
import pytest

from ptlab.cli import main


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, [
            "bounds", "--N", "4", "--r", "0.4", "--tmax", "10",
            "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads(out)
        assert summary["command"] == "bounds"
        assert os.path.exists(summary["files"][0])

    @pytest.mark.parametrize("command", ["sample", "tune", "gcb"])
    def test_validation_error(self, capsys, tmp_path, command):
        out_dir = tmp_path / "out"
        rc, out, err = run_cli(capsys, [
            command, "--model", "ising-typo", "--out", str(out_dir)])
        assert rc == 1
        payload = json.loads(err)
        assert payload["kind"] == "validation"
        assert "ising-typo" in payload["error"]
        assert out == "" and not out_dir.exists()

    def test_runtime_error(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, [
            "diagnose", "--trace", str(tmp_path / "missing.csv")])
        assert rc == 2
        payload = json.loads(err)
        assert payload["kind"] == "runtime"

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
        rc, out, _ = run_cli(capsys, [
            "sample", "--model", "bimodal", "--chains", "5", "--iters", "200",
            "--out", str(tmp_path)])
        assert rc == 0
        rc, out, _ = run_cli(capsys, [
            "diagnose", "--trace", str(tmp_path / "trace.csv")])
        assert rc == 0
        summary = json.loads(out)
        assert abs(summary["lag1_energy_autocorr"]) <= 1.0

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

    def test_hitting_csv(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, [
            "hitting", "--process", "pdmp", "--lam", "2.0",
            "--replicas", "2000", "--tmin", "1", "--tmax", "5",
            "--points", "5", "--out", str(tmp_path)])
        assert rc == 0
        data = np.genfromtxt(tmp_path / "survival_pdmp.csv", delimiter=",",
                             names=True)
        assert np.all(np.diff(data["survival"]) <= 0)

    def test_gcb_burn_in_is_used(self, capsys, tmp_path):
        def lam_hat(burn_in):
            rc, out, _ = run_cli(capsys, [
                "gcb", "--model", "bimodal", "--chains", "3", "--iters", "64",
                "--replicas", "200", "--burn-in", burn_in,
                "--out", str(tmp_path)])
            assert rc == 0
            return json.loads(out)["lambda_hat"]

        assert lam_hat("0.2") != lam_hat("0.9")

    def test_laplace_table(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, [
            "laplace", "--lam", "1", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads(out)
        assert abs(summary["table"]["1.0"]["C"] - 0.632) < 0.02
