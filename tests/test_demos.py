"""Each demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import leinert

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def run_demo(path):
    # the demos import the package the tests import, wherever it lives
    src = str(Path(leinert.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=120
    )


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_zero(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if path.stem == "demo_radius_bounds":
        # each solved G must sit above P(zG) in the sandwich table
        assert "violated" not in proc.stdout
