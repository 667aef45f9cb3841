"""Every name a module imports is used by it: library, scripts and tests."""

from __future__ import annotations

import ast
from pathlib import Path

import chromheap

PACKAGE = Path(chromheap.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
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
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    folders = (PACKAGE, ROOT / "scripts", ROOT / "tests")
    modules = [sorted(p for p in f.glob("*.py") if p.name != "__init__.py") for f in folders]
    assert all(modules)
    unused = [entry for paths in modules for p in paths for entry in _unused_imports(p)]
    assert unused == []
