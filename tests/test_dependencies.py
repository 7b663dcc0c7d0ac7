"""Which third-party modules the package pulls in.

numpy covers everything but the pivoted QR on defective eigenvector blocks
in ``hierarchy.hdtrw_eigenpairs``; that is the one scipy import left.
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
