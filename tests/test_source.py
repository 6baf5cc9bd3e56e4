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


# numpy names whose contractions dispatch to BLAS, whose results can depend on
# the thread count; every module contracts with einsum only, but for the @ on
# 3-vectors in bodies._hyperplane_basis: as einsum they move the 3-D nodes of
# spheres.slice_rule in the last bits, on about 37% of random axes
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot"}
EINSUM_ONLY = [p.name for p in MODULES if p.name != "bodies.py"]


def blas_contractions(source: str) -> list[str]:
    """"name:line" of every BLAS-dispatching contraction in ``source``: the @
    operator, and any attribute or numpy import named in BLAS_NAMES (np.dot,
    the ndarray.dot method, from numpy import tensordot, ...)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(("@", node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [(alias.name, node.lineno) for alias in node.names
                      if alias.name in BLAS_NAMES]
    return [f"{name}:{line}" for name, line in sorted(found, key=lambda f: f[1])]


def test_checker_finds_blas_contractions():
    src = ("import numpy as np\nfrom numpy import vdot, einsum\na = b @ c\nc @= d\n"
           "x = np.dot(a, b) + a.dot(b)\ny = np.einsum('ij,jk->ik', a, b)\n"
           "z = np.matmul(a, b), np.inner(a, b), np.tensordot(a, b)\n"
           "inner = 1\n@decorator\ndef f(): pass\n")
    assert blas_contractions(src) == ["vdot:2", "@:3", "@:4", "dot:5", "dot:5", "matmul:7",
                                      "inner:7", "tensordot:7"]


@pytest.mark.parametrize("name", EINSUM_ONLY)
def test_einsum_only_contractions(name):
    assert blas_contractions((PACKAGE / name).read_text()) == []


def test_bodies_contracts_with_blas_in_hyperplane_basis_only():
    source = (PACKAGE / "bodies.py").read_text()
    basis = next(node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef) and node.name == "_hyperplane_basis")
    lines = [int(found.split(":")[1]) for found in blas_contractions(source)]
    assert lines and all(basis.lineno <= line <= basis.end_lineno for line in lines)


def scipy_imports(source: str) -> list[int]:
    """Lines of ``source`` that import scipy or any of its modules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            lines += [node.lineno for alias in node.names if alias.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            lines.append(node.lineno)
    return lines


def test_checker_finds_scipy_imports():
    src = ("import numpy as np\nimport scipy\nfrom scipy.spatial import ConvexHull\n"
           "def f():\n    import scipy.optimize as so\n    from scipyx import y\n")
    assert scipy_imports(src) == [2, 3, 5]


def test_bodies_imports_no_scipy():
    # polytope vertices, volumes and facet areas come from the facet recursion
    assert scipy_imports((PACKAGE / "bodies.py").read_text()) == []


def rule_uses(source: str, names) -> list[int]:
    """Lines of ``source`` that reach a library rule named in ``names``: an
    attribute of that name, or a numpy or scipy import of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(("numpy", "scipy")):
            lines += [node.lineno for alias in node.names if alias.name in names]
    return sorted(lines)


def leggauss_uses(source: str) -> list[int]:
    """Lines of ``source`` that reach numpy's Gauss-Legendre rule."""
    return rule_uses(source, {"leggauss"})


def test_checker_finds_leggauss():
    src = ("import numpy as np\nfrom numpy.polynomial.legendre import leggauss\n"
           "x = np.polynomial.legendre.leggauss(8)\nfrom .grids import leggauss\n")
    assert leggauss_uses(src) == [2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_gauss_legendre_built_in_grids_only(path):
    # every interval rule comes from grids.leggauss / grids.gauss_legendre
    assert bool(leggauss_uses(path.read_text())) == (path.name == "grids.py")


# scipy's Gauss-Jacobi rule, under both of its names
JACOBI_NAMES = {"roots_jacobi", "j_roots"}


def test_checker_finds_jacobi_rules():
    src = ("from scipy.special import roots_jacobi\nimport scipy.special as sp\n"
           "x = sp.j_roots(8, 0, 1)\nfrom .grids import gauss_jacobi\n")
    assert rule_uses(src, JACOBI_NAMES) == [1, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_gauss_jacobi_built_in_grids_only(path):
    # no module builds a Gauss-Jacobi rule, grids.py included: the fractional
    # path's product weights take the Legendre moments of (1 + x)^(alpha - 1)
    # in closed form, and scipy's roots_jacobi there added about 1 MiB of
    # peak RSS
    source = path.read_text()
    assert rule_uses(source, JACOBI_NAMES) == []
    assert not any(isinstance(node, ast.FunctionDef) and node.name == "gauss_jacobi"
                   for node in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("module", ["anisomag", "anisomag.cli"])
def test_import_loads_no_scipy(module):
    # scipy is imported inside the functions that use it, which keeps it out
    # of every process that only imports the package, or builds polytope
    # bodies and regions and reads their geometry
    code = (f"import sys, {module}; import anisomag as am; am.cube(2); am.cross_polytope(3); "
            "am.indicator(am.unit_square()); box = am.box_region([0, 0, 0], [1, 2, 3]); "
            "box.volume(); box.facet_areas(); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.stdout.strip() == "[]"
