"""Guard: no plain ``np.unique`` on the simulator's hot paths.

NumPy >= 2.3 answers ``np.unique(x)`` without ``return_*`` flags from a
hash table and then sorts the result anyway, 14-60x slower on int64 keys
than :func:`repro.utils.sorted_unique` (see its docstring).  Calls that
ask for an index, inverse or counts take NumPy's sort path and are
allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SCANNED = ("gpusim", "graphs", "core", "runtime", "serve", "sanitize")
SORT_PATH_FLAGS = {"return_index", "return_inverse", "return_counts"}


def plain_unique_calls(source: str) -> list[int]:
    """Line numbers of ``np.unique(`` / ``numpy.unique(`` calls (or of a
    bare ``unique(`` imported from numpy) without a ``return_*`` flag set
    to a literal ``True``; a false or computed flag may take the hash
    path."""
    tree = ast.parse(source)
    bare = {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and node.module == "numpy"
            for alias in node.names if alias.name == "unique"}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_unique = (
            (isinstance(func, ast.Attribute) and func.attr == "unique"
             and isinstance(func.value, ast.Name)
             and func.value.id in ("np", "numpy"))
            or (isinstance(func, ast.Name) and func.id in bare))
        sort_path = any(
            k.arg in SORT_PATH_FLAGS and isinstance(k.value, ast.Constant)
            and k.value.value is True for k in node.keywords)
        if is_unique and not sort_path:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, flagged", [
    ("import numpy as np\nnp.unique(a)\n", [2]),
    ("import numpy\nnumpy.unique(a)\n", [2]),
    ("from numpy import unique as u\nu(a)\n", [2]),
    ("np.unique(a, return_counts=False)\n", [1]),
    ("np.unique(a, return_index=flag)\n", [1]),
    ("np.unique(a, return_counts=True)\n", []),
    ("np.unique(a, return_index=True, return_inverse=True)\n", []),
    ("obj.unique(a)\nprobe_unique(a)\n", []),
])
def test_scanner_flags_plain_calls(source, flagged):
    assert plain_unique_calls(source) == flagged


def test_no_plain_np_unique_on_hot_paths():
    offenders = []
    for package in SCANNED:
        files = sorted((SRC / package).rglob("*.py"))
        assert files, f"nothing scanned under {SRC / package}"
        for path in files:
            for line in plain_unique_calls(path.read_text()):
                offenders.append(f"{path.relative_to(SRC)}:{line}")
    assert not offenders, (
        "plain np.unique takes NumPy's hash path; use "
        "repro.utils.sorted_unique: " + ", ".join(offenders))
