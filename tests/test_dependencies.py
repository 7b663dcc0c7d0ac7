"""Which modules the package pulls in, and what it takes from its own modules.

numpy covers everything but the pivoted QR on defective eigenvector blocks
in ``hierarchy.hdtrw_eigenpairs``; that is the one scipy import left. No
module reaches for a private name of ``hierarchy`` or ``quantum``: private
helpers shared across the tuple lattice live in ``spectral``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hierwalk"
ALLOWED_SCIPY = {("hierarchy.py", "from scipy.linalg import qr")}


def _scipy_imports(source: str) -> list[str]:
    """Every import statement in ``source`` that names scipy, as normalized text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found.append(f"from {node.module} import {', '.join(a.name for a in node.names)}")
    return found


@pytest.mark.parametrize("line, expected", [
    ("import scipy", ["import scipy"]),
    ("import numpy, scipy.sparse as sp", ["import scipy.sparse"]),
    ("from scipy.linalg import expm, qr", ["from scipy.linalg import expm, qr"]),
    ("from scipy import linalg", ["from scipy import linalg"]),
    ("import numpy as np", []),
    ("def f():\n    from scipy.sparse.csgraph import connected_components",
     ["from scipy.sparse.csgraph import connected_components"]),
])
def test_scipy_import_scan_sees_every_form(line, expected):
    assert _scipy_imports(line) == expected


def test_only_scipy_import_is_qr_in_hierarchy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in modules} >= {"hierarchy.py", "graphs.py", "oracle.py"}
    found = {(p.name, line) for p in modules for line in _scipy_imports(p.read_text())}
    assert found == ALLOWED_SCIPY


def test_import_loads_no_scipy_sparse():
    code = ("import sys, hierwalk; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert out.stdout.strip() == "[]"


PRIVATE_SOURCES = ("hierarchy", "quantum")


def _private_imports(source: str) -> list[str]:
    """Every underscore name ``source`` takes from ``hierarchy`` or ``quantum``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] in PRIVATE_SOURCES):
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in PRIVATE_SOURCES and node.attr.startswith("_")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("line, expected", [
    ("from .hierarchy import DENSE_CAP, _apply_register", ["hierarchy._apply_register"]),
    ("from hierwalk.quantum import _laws", ["hierwalk.quantum._laws"]),
    ("from . import quantum\nx = quantum._kbar_table", ["quantum._kbar_table"]),
    ("from .spectral import _tuple_table", []),
    ("from .hierarchy import build_hdtrw", []),
    ("def f():\n    from .quantum import _branch_laws", ["quantum._branch_laws"]),
])
def test_private_import_scan_sees_every_form(line, expected):
    assert _private_imports(line) == expected


def test_no_module_takes_private_names_from_hierarchy_or_quantum():
    found = {p.name: _private_imports(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {"cli.py", "quantum.py", "hierarchy.py"} <= set(found)
    assert {name: names for name, names in found.items() if names} == {}
