import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["run_clt_check.py",
                                    "run_scaling_limits.py"])
def test_help(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), "--help"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_clt_check_rejects_untabulated_level_before_running():
    # at the default sizes every PT run takes minutes; the flag must be
    # rejected first
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_clt_check.py"),
         "--level", "0.5"],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert proc.returncode != 0
    assert "--level" in proc.stderr
    assert proc.stdout == ""
