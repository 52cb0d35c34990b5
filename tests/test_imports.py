"""Every name that a module of src/wpnlab (other than the package's
__init__.py, which re-exports), a script in scripts/ or a test module in
tests/ imports is used in that file; every private module-level name of
src/wpnlab is read somewhere in src/wpnlab; and every public one is
exported by __init__.py or read in src/wpnlab or scripts/.  CI runs no
linter, so these are the checks for dead imports, dead private code and
dead public code."""

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
    return modules + sorted((ROOT / "scripts").glob("*.py")) + \
        sorted((ROOT / "tests").glob("*.py"))


def test_every_imported_name_is_used():
    files = _checked_files()
    assert len(files) >= 20
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
    """Names (but dunders) a module-level function, class or assignment
    binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not n.startswith("__")]


def _unread_names(files: list[pathlib.Path], root: pathlib.Path = ROOT, *,
                  public: bool = False,
                  readers: tuple[pathlib.Path, ...] = ()) -> tuple[int, list[str]]:
    """How many private (or, with ``public``, public) names the files
    define, and those that no other module-level statement of the files
    or of ``readers`` reads (a function calling only itself is unread).
    An import counts as a read, so a name that __init__.py re-exports is
    read."""
    def body(paths):
        return [(p, node) for p in paths
                for node in ast.parse(p.read_text(), filename=str(p)).body]

    defined = body(files)
    reads = [_reads(node) for _, node in defined + body(readers)]
    seen, unread = 0, []
    for i, (path, node) in enumerate(defined):
        for name in _defines(node):
            if name.startswith("_") == public:
                continue
            seen += 1
            if not any(name in r for j, r in enumerate(reads) if j != i):
                unread.append(f"{path.relative_to(root)}:{node.lineno}: {name}")
    return seen, unread


def _modules() -> list[pathlib.Path]:
    return sorted((ROOT / "src" / "wpnlab").glob("*.py"))


def test_every_private_name_is_read():
    seen, unread = _unread_names(_modules())
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
    assert _unread_names(files, tmp_path) == (
        6, ["a.py:2: _spare", "a.py:3: _walk"])


def test_every_public_name_is_exported_or_read():
    scripts = tuple(sorted((ROOT / "scripts").glob("*.py")))
    seen, unread = _unread_names(_modules(), public=True, readers=scripts)
    assert seen >= 80
    assert unread == []


def test_the_check_sees_an_unexported_unread_public_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "def helper():\n    return LIMIT\n"
        "def exported():\n    return helper()\n"
        "def spare(n):\n    return spare(n - 1) if n else 0\n"
        "class Box:\n    pass\n"
        "class Unused:\n    pass\n")
    (tmp_path / "__init__.py").write_text(
        "from .a import exported\n__version__ = '1'\n")
    (tmp_path / "s.py").write_text(
        "import pkg.a\ndef main():\n    return pkg.a.Box\n")
    files = [tmp_path / "a.py", tmp_path / "__init__.py"]
    assert _unread_names(files, tmp_path, public=True,
                         readers=(tmp_path / "s.py",)) == (
        6, ["a.py:6: spare", "a.py:10: Unused"])
