"""The package runs on the declared ``numpy>=1.24``: its source calls nothing NumPy 2 added.

An ``ast`` scan of ``src/susyqw/*.py`` for the NumPy-2-only spellings that
a newer NumPy accepts silently: the ``.mT`` / ``.mH`` array attributes, a
``copy=`` keyword to ``reshape``, and functions new in NumPy 2.0-2.2.
"""

import ast
from pathlib import Path

import pytest

from helpers import dotted_name

SOURCE = Path(__file__).resolve().parents[1] / "src" / "susyqw"

# array attributes added in NumPy 2.0
NUMPY2_ATTRIBUTES = {"mT", "mH"}
# np.<name> added in NumPy 2.0-2.2 (the array-API aliases and new functions)
NUMPY2_FUNCTIONS = {
    "concat", "permute_dims", "matrix_transpose", "astype", "unstack", "cumulative_sum",
    "cumulative_prod", "pow", "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh",
    "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "vecdot", "isdtype",
    "unique_all", "unique_counts", "unique_inverse", "unique_values", "trapezoid",
    "matvec", "vecmat",
    "linalg.matrix_norm", "linalg.vector_norm", "linalg.matrix_transpose", "linalg.vecdot",
    "linalg.outer", "linalg.diagonal", "linalg.svdvals", "linalg.trace", "linalg.cross",
}


def numpy2_only(source):
    """(line, what) for each NumPy-2-only spelling in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = dotted_name(node) or ""
            head, _, rest = name.partition(".")
            if head in ("np", "numpy") and rest in NUMPY2_FUNCTIONS:
                found.append((node.lineno, name))
            elif node.attr in NUMPY2_ATTRIBUTES:
                found.append((node.lineno, f".{node.attr}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "reshape"
              and any(k.arg == "copy" for k in node.keywords)):
            found.append((node.lineno, "reshape(copy=)"))
    return sorted(found)


@pytest.mark.parametrize("source, expected", [
    ("pairs = rows.reshape(n, 2, -1, copy=False)", [(1, "reshape(copy=)")]),
    ("x = np.reshape(a, (2, -1), copy=True)", [(1, "reshape(copy=)")]),
    ("theta = np.linalg.eigh(x.mT @ sx)", [(1, ".mT")]),
    ("h = y.mH", [(1, ".mH")]),
    ("a = np.concat([x, y])\nb = numpy.linalg.vector_norm(a)",
     [(1, "np.concat"), (2, "numpy.linalg.vector_norm")]),
    ("c = np.cumulative_sum(a)\nd = np.unstack(a)", [(1, "np.cumulative_sum"),
                                                     (2, "np.unstack")]),
    ("e = np.astype(a, float)", [(1, "np.astype")]),
    ("ok = a.astype(float).reshape(2, -1)\nt = a.T\nm = math.acos(0.5)\n"
     "s = np.concatenate([a]).cumsum()", []),
], ids=["reshape-copy", "np-reshape-copy", "mT", "mH", "concat-vector-norm",
        "cumulative-sum-unstack", "np-astype", "numpy-1-spellings"])
def test_scan_flags_numpy2_spellings(source, expected):
    assert numpy2_only(source) == expected


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_package_source_keeps_the_numpy_floor(path):
    assert numpy2_only(path.read_text()) == []
