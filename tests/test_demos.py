"""Every demo script runs to exit 0 against the current package.

Demos call the public API directly, so a deleted name breaks them without
any other test noticing.  ``driver_equivalence.py`` needs a subcommand and
``ordering_study.py`` takes about 45 s; both are left out.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
SKIPPED = {"driver_equivalence.py", "ordering_study.py"}
SCRIPTS = sorted(p.name for p in DEMOS.glob("*.py") if p.name not in SKIPPED)


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(script, tmp_path):
    proc = _run([sys.executable, str(DEMOS / script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_cli_pipeline_runs(tmp_path):
    proc = _run(["sh", str(DEMOS / "cli_pipeline.sh"), str(tmp_path / "demo")],
                tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "replay byte-identical" in proc.stdout
