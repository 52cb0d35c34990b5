"""Every name that a module of src/wpnlab (other than the package's
__init__.py, which re-exports) or a script in scripts/ imports is used
in that file, and every private module-level name of src/wpnlab is read
somewhere in src/wpnlab; CI runs no linter, so these are the checks for
dead imports and dead private code."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _unused_imports(path: pathlib.Path, root: pathlib.Path = ROOT) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(root)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def _checked_files() -> list[pathlib.Path]:
    modules = [p for p in sorted((ROOT / "src" / "wpnlab").glob("*.py"))
               if p.name != "__init__.py"]
    return modules + sorted((ROOT / "scripts").glob("*.py"))


def test_every_imported_name_is_used():
    files = _checked_files()
    assert len(files) >= 10
    assert [u for p in files for u in _unused_imports(p)] == []


def test_the_check_sees_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from __future__ import annotations\n"
                   "import os.path\nfrom math import gcd, lcm as least\n"
                   "def f(x: int) -> int:\n    return gcd(x, os.sep.count(''))\n")
    assert _unused_imports(src, tmp_path) == ["mod.py:3: least"]


def _reads(node: ast.AST) -> set[str]:
    """Names a statement reads: loaded names, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _defines(node: ast.stmt) -> list[str]:
    """Private names (one leading underscore) a module-level function,
    class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _unread_private_names(files: list[pathlib.Path],
                          root: pathlib.Path = ROOT) -> tuple[int, list[str]]:
    """How many private names the files define, and those that no other
    module-level statement of the files reads (a function calling only
    itself is unread)."""
    stmts = [(p, node) for p in files
             for node in ast.parse(p.read_text(), filename=str(p)).body]
    reads = [_reads(node) for _, node in stmts]
    seen, unread = 0, []
    for i, (path, node) in enumerate(stmts):
        for name in _defines(node):
            seen += 1
            if not any(name in r for j, r in enumerate(reads) if j != i):
                unread.append(f"{path.relative_to(root)}:{node.lineno}: {name}")
    return seen, unread


def test_every_private_name_is_read():
    seen, unread = _unread_private_names(sorted((ROOT / "src" / "wpnlab").glob("*.py")))
    assert seen >= 70
    assert unread == []


def test_the_check_sees_an_unread_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT: int = 3\n_TABLE, _spare = {}, 0\n"
        "def _walk(n):\n    return _walk(n - 1) if n else 0\n"
        "class _Box:\n    pass\n"
        "def _helper():\n    return _TABLE.get(_LIMIT)\n"
        "def public():\n    return _helper()\n")
    (tmp_path / "b.py").write_text("from .a import _Box\n__all__ = []\n")
    files = [tmp_path / "a.py", tmp_path / "b.py"]
    assert _unread_private_names(files, tmp_path) == (
        6, ["a.py:2: _spare", "a.py:3: _walk"])
