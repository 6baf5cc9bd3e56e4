"""Static checks on the package source."""

from __future__ import annotations

import ast
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
