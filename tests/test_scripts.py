"""Smoke runs of the exploration scripts, so an API change cannot break
them silently."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/gram_explorer.py", "--degree", "1", "--modes=-2:2"],
    ["scripts/serre_demo.py", "--K", "3", "--window", "4"],
    ["perfbench/selftest.py"],
    ["scripts/verify_all.py"],
])
def test_script_exits_0(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
