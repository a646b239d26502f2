"""The package runs on the declared ``requires-python >= 3.10``.

Every ``src/susyqw/*.py`` parses with the Python 3.10 grammar, and an
``ast`` scan finds no standard-library name added in 3.11 or later: a
newer interpreter runs such code silently.
"""

import ast
from pathlib import Path

import pytest

from helpers import dotted_name

SOURCE = Path(__file__).resolve().parents[1] / "src" / "susyqw"
FLOOR = (3, 10)

# standard-library modules and names added after Python 3.10
NEWER_STDLIB = {"itertools.batched", "tomllib", "typing.Self", "enum.StrEnum", "datetime.UTC"}


def newer_stdlib(source):
    """(line, name) for each import or attribute use of a name in ``NEWER_STDLIB``.

    A module imported under another name (``import datetime as dt``) is
    followed through its alias.
    """
    tree = ast.parse(source)
    aliases = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.asname}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
        elif isinstance(node, ast.Attribute):
            head, dot, rest = (dotted_name(node) or "").partition(".")
            names = [aliases.get(head, head) + dot + rest]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in NEWER_STDLIB]
    return sorted(set(found))


@pytest.mark.parametrize("source, expected", [
    ("import itertools\nfor b in itertools.batched(rows, 8): pass",
     [(2, "itertools.batched")]),
    ("from itertools import batched, chain", [(1, "itertools.batched")]),
    ("import tomllib", [(1, "tomllib")]),
    ("from tomllib import loads", [(1, "tomllib")]),
    ("from typing import Iterator, Self", [(1, "typing.Self")]),
    ("import enum\nclass Kind(enum.StrEnum): pass", [(2, "enum.StrEnum")]),
    ("import datetime as dt\nnow = dt.datetime.now(dt.UTC)", [(2, "datetime.UTC")]),
    ("import itertools\nfrom typing import Iterator\nrows = itertools.chain([], [])\n"
     "import datetime\ntz = datetime.timezone.utc", []),
], ids=["itertools-batched", "from-itertools-batched", "import-tomllib", "from-tomllib",
        "typing-self", "enum-strenum", "datetime-utc-alias", "python-3-10-names"])
def test_scan_flags_newer_stdlib_names(source, expected):
    assert newer_stdlib(source) == expected


def test_floor_grammar_refuses_newer_syntax():
    """The 3.10 parse is a real guard: it refuses the 3.11 ``except*``."""
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=FLOOR)


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_package_source_keeps_the_python_floor(path):
    source = path.read_text()
    ast.parse(source, filename=str(path), feature_version=FLOOR)
    assert newer_stdlib(source) == []
