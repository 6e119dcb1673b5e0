"""Smoke runs of the exploration scripts, so an API change cannot break
them silently."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["scripts/gram_explorer.py", "--degree", "1", "--modes=-2:2"],
    ["scripts/serre_demo.py", "--K", "3", "--window", "4"],
    ["perfbench/selftest.py"],
    ["scripts/verify_all.py"],
])
def test_script_exits_0(argv):
    done = _run(argv)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("args, message", [
    (["--K", "0"], "--K must be at least 2"),
    (["--K", "1"], "--K must be at least 2"),
    (["--window", "-3"], "--window must be at least 0"),
])
def test_serre_demo_rejects_bad_input(args, message):
    done = _run(["scripts/serre_demo.py", *args])
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr


def test_serre_demo_exits_1_on_a_false_verdict(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "serre_demo", ROOT / "scripts" / "serre_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    argv = ["--K", "2", "--window", "1"]
    assert demo.main(argv) == 0
    poles = demo.check_pole_vanishing
    monkeypatch.setattr(demo, "check_pole_vanishing", lambda *a, **k: {
        **poles(*a, **k), "residue_at_w1": False})
    assert demo.main(argv) == 1
    assert "'residue_at_w1': False" in capsys.readouterr().out
    monkeypatch.undo()
    # a False leaf of a nested ledger entry counts too
    synthesize = demo.synthesize

    def one_false_membership(*a, **k):
        out = synthesize(*a, **k)
        out["checks"]["membership"]["c_pre2"] = False
        return out

    monkeypatch.setattr(demo, "synthesize", one_false_membership)
    assert demo.main(argv) == 1


def test_serre_demo_exits_2_on_a_box_past_the_windows(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "serre_demo", ROOT / "scripts" / "serre_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    synthesize = demo.synthesize
    # a system synthesized on a smaller box than the one it is checked on
    monkeypatch.setattr(demo, "synthesize",
                        lambda cfg, check: synthesize(cfg, check=check - 1))
    assert demo.main(["--K", "2", "--window", "2"]) == 2
    err = capsys.readouterr().err
    assert "check box [-2, 2] is not inside the window" in err
