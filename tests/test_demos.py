"""Every demo script runs to completion with nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=300)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    out = run_demo(path)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout
    if path.name.startswith("04"):
        lines = out.stdout.split("best periodic orbits", 1)[1].splitlines()[1:]
        orbits = [line for line in lines if line.startswith("  (")]
        assert orbits and len(set(orbits)) == len(orbits)
