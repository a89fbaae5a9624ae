"""The runtime needs nothing beyond the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "evalgate"


def imported_top_level_modules(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import stays inside the package
            names.add("evalgate" if node.level else node.module.split(".")[0])
    return names


def test_every_runtime_import_is_stdlib_or_evalgate():
    sources = sorted(SOURCE.glob("*.py"))
    assert sources
    outside = {
        f"{path.name}: {name}"
        for path in sources
        for name in imported_top_level_modules(path)
        if name != "evalgate" and name not in sys.stdlib_module_names
    }
    assert outside == set()
