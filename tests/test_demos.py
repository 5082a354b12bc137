"""Each demo script, in development mode with warnings as errors as the
tests run in CI, and the paper check under ``python -O``, runs to completion
against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


def _run(*argv, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    proc = _run("-X", "dev", "-W", "error", str(demo))
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_paper_check_passes_under_optimize():
    # -O strips assert statements, so no self-check on the solver or rewrite
    # path may be one
    proc = _run("-O", "-m", "gametree.cli", "paper-check", timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
