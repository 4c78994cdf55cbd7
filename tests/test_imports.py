"""Every imported name is used by the module that imports it, and the
package imports no part of scipy, which only the tests use.

Package ``__init__`` modules are exempt from the unused-import check: their
imports are the package's re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    modules = [path for top in ("src", "scripts", "tests")
               for path in sorted((ROOT / top).rglob("*.py"))
               if path.name != "__init__.py"]
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def test_package_import_leaves_scipy_unloaded():
    # a fresh interpreter, so modules imported by earlier tests cannot mask it
    modules = sorted(path.stem for path in (ROOT / "src" / "tde_plankton").glob("*.py")
                     if path.name != "__init__.py")
    assert {"cli", "equilibria", "linearize", "continuation", "simulate"} <= set(modules)
    probe = ("import importlib, sys\n"
             f"for name in {modules!r}: importlib.import_module('tde_plankton.' + name)\n"
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
