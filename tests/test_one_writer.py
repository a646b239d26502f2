"""``cli._emit`` is the package's one writer of files.

An ``ast`` scan of ``src/susyqw/*.py`` for the calls that can create, write,
cut or remove a file: ``open`` with a mode that writes, appends, creates or
updates (or a mode the scan cannot read), ``os.open``, the cuts and
removals of ``os`` (``ftruncate``, ``truncate``, ``remove``, ``unlink``,
``replace``, ``rename``), NumPy's savers, the copying and temporary-file
calls of ``shutil`` and ``tempfile``, and the ``write_text``/``write_bytes``/
``tofile``/``truncate`` methods.  Opening for reading, as ``--config`` is
read, stays allowed everywhere.  The scan knows these calls by the names
the package imports them under (``os``, ``np``, ``shutil``, ``tempfile``);
a renamed import, ``Path.open``, ``Path.unlink``, a subprocess or a handle
passed in from outside would pass it unseen.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "susyqw"
# the functions, by module, whose body may write a file
WRITERS = {"cli.py": {"_emit"}}
OPENS = {"open", "io.open", "builtins.open"}
# calls that write a file whatever their arguments, by dotted name or method name
WRITE_CALLS = {"os.open", "os.ftruncate", "os.truncate", "os.remove", "os.unlink",
               "os.replace", "os.rename",
               "np.save", "np.savez", "np.savez_compressed", "np.savetxt",
               "shutil.copy", "shutil.copy2", "shutil.copyfile", "shutil.copytree",
               "shutil.move", "tempfile.mkstemp", "tempfile.NamedTemporaryFile",
               "tempfile.TemporaryFile", "tempfile.SpooledTemporaryFile"}
WRITE_METHODS = {"write_text", "write_bytes", "tofile", "truncate"}


def _mode(call):
    """The mode argument of an ``open`` call: its text, "r" if absent, None if not a literal."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def _writes(call):
    """What ``call`` writes a file with: "open(mode)", a dotted name, ".method", or None."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        name = f"{func.value.id}.{func.attr}"
    elif isinstance(func, ast.Name):
        name = func.id
    else:
        name = None
    if name in WRITE_CALLS:
        return name
    if isinstance(func, ast.Attribute) and func.attr in WRITE_METHODS:
        return f".{func.attr}"
    if name in OPENS:
        mode = _mode(call)
        if mode is None or set(mode) & set("wax+"):
            return f"{name}({mode!r})"
    return None


def writers(source, allowed=()):
    """(line, what) for each call in ``source`` that writes a file outside the ``allowed`` functions."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name in allowed
        if isinstance(node, ast.Call) and not inside and (what := _writes(node)):
            found.append((node.lineno, what))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return sorted(found)


@pytest.mark.parametrize("source, expected", [
    ("with open(path, 'w', encoding='utf-8') as fh:\n    pass", [(1, "open('w')")]),
    ("fh = open(path, mode='a')", [(1, "open('a')")]),
    ("fh = io.open(path, 'r+b')\nfd = os.open(path, os.O_RDONLY)",
     [(1, "io.open('r+b')"), (2, "os.open")]),
    ("fh = open(path, 'xb')\nfh = open(path, kind)", [(1, "open('xb')"), (2, "open(None)")]),
    ("def helper(path):\n    def inner():\n        return open(path, 'w')\n",
     [(3, "open('w')")]),
    ("np.savetxt(path, a)\nPath(path).write_text(text)\nself.rows().tofile(fh)\n"
     "shutil.move(a, b)\nfd, name = tempfile.mkstemp()",
     [(1, "np.savetxt"), (2, ".write_text"), (3, ".tofile"), (4, "shutil.move"),
      (5, "tempfile.mkstemp")]),
    ("os.ftruncate(fd, 1)\nos.truncate(path, 0)\nfh.truncate()\nos.remove(path)\n"
     "os.unlink(path)\nos.replace(a, b)\nos.rename(a, b)",
     [(1, "os.ftruncate"), (2, "os.truncate"), (3, ".truncate"), (4, "os.remove"),
      (5, "os.unlink"), (6, "os.replace"), (7, "os.rename")]),
    ("with open(cfg, encoding='utf-8') as fh:\n    pass\nb = open(cfg, 'rb')\n"
     "c = open(cfg, mode='rt')\nd = a.copy()\ne = np.load(path)", []),
], ids=["write", "append-keyword", "update-and-os-open", "create-and-unread-mode",
        "nested-function", "savers-methods-shutil-tempfile", "cuts-and-removals",
        "reads-only"])
def test_scan_flags_writes(source, expected):
    assert writers(source) == expected


def test_scan_allows_writes_inside_the_named_function_only():
    source = ("def _emit(path):\n    def opener(p, flags):\n        return os.open(p, flags)\n"
              "    return open(path, 'w', opener=opener)\n\n"
              "def other(path):\n    return open(path, 'w')\n")
    assert writers(source, {"_emit"}) == [(7, "open('w')")]
    assert [line for line, _ in writers(source)] == [3, 4, 7]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_only_emit_writes_files(path):
    assert writers(path.read_text(), WRITERS.get(path.name, ())) == []


def test_emit_is_the_writer_the_scan_sees():
    """Without its allowance, cli.py shows ``_emit``'s open, os.open, one-byte cut and
    removal of a partial file, and nothing else."""
    found = writers((SOURCE / "cli.py").read_text())
    assert sorted(what for _, what in found) == ["open('w')", "os.ftruncate", "os.open",
                                                 "os.remove"]
