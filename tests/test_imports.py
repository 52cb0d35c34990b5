"""Every name that a module of src/wpnlab (other than the package's
__init__.py, which re-exports) or a script in scripts/ imports is used
in that file; CI runs no linter, so this is the check for dead imports."""

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
