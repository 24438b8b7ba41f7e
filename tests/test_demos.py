"""Smoke test: every demo script and the README quick start run to
completion against the checkout."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, cli_env, tmp_path):
    r = subprocess.run([sys.executable, str(demo)], capture_output=True,
                       env=cli_env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr.decode()


def test_readme_quick_start_runs_as_its_comments_say():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = block.splitlines()
    ns = {}
    for stmt in ast.parse(block).body:
        code = ast.Module([stmt], type_ignores=[])
        if not isinstance(stmt, ast.Expr):
            exec(compile(code, "README.md", "exec"), ns)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
        # an expression line's comment starts with the value's repr
        comment = lines[stmt.end_lineno - 1].split("# ", 1)[1]
        assert comment.startswith(repr(value)), (comment, value)
    for q, v in value:  # the last line: the rebuilt |q| at the queries
        assert abs(v - abs(q[0])) <= 1e-8
