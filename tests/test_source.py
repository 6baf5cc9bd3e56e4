"""Static checks on the package source."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anisomag as am

PACKAGE = Path(am.__file__).resolve().parent
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in ``source`` that no
    expression in it reads."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_checker_finds_unused_names():
    src = "import os\nimport numpy as np\nfrom math import pi, tau as t\nx = np.pi + t\n"
    assert unused_imports(src) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("module", ["anisomag", "anisomag.cli"])
def test_import_loads_no_scipy(module):
    # scipy is imported inside the functions that use it, which keeps it out
    # of every process that only imports the package
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.stdout.strip() == "[]"
