"""Smoke test: every demo script runs to completion against the checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, cli_env, tmp_path):
    r = subprocess.run([sys.executable, str(demo)], capture_output=True,
                       env=cli_env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr.decode()
