"""Smoke tests: the quick demos run to completion, and every demo imports
only names the library has.

Demos 03-05 take several seconds each and are left to manual runs.
"""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["01_escaping_saddles.py",
                                    "02_adaptive_constants.py"])
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ, NCOPT_OUTPUT_DIR=str(tmp_path))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", sorted(
    os.path.basename(path)
    for path in glob.glob(os.path.join(ROOT, "demos", "*.py"))))
def test_demo_imports_exist(script):
    # parsed, not run, so the slow demos are covered too
    with open(os.path.join(ROOT, "demos", script)) as handle:
        tree = ast.parse(handle.read())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "ncopt"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), "%s.%s" % (node.module, alias.name)
