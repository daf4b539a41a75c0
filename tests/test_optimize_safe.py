"""Cross-checks in the library must survive ``python -O``.

``assert`` statements are stripped under ``-O``, so the library raises
errors for its consistency checks instead; the worked-examples script, which
runs them all, must still pass with assertions stripped.  The library also
uses no true division, which could turn exact rationals into floats.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_has_no_assert_statements():
    found = []
    for path in sorted((ROOT / "src" / "tauslice").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_library_has_no_true_division():
    """Over Q an integral value is an ``int``, so ``a / b`` would give a float."""
    found = []
    for path in sorted((ROOT / "src" / "tauslice").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div)]
    assert found == []


def test_worked_examples_pass_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-O", str(ROOT / "scripts" / "verify_worked_examples.py")],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
