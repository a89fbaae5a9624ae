"""The runtime needs nothing beyond the standard library."""

from __future__ import annotations

import ast
import subprocess
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


# The extension modules from lib-dynload that importing the CLI loads into an
# interpreter started without site, as measured on CPython 3.11. Each one is
# a shared object mapped into every run, so each adds to every run's set-up
# RSS; array, for one, is not needed.
CLI_EXTENSION_MODULES = {
    "_bisect", "_blake2", "_hashlib", "_json", "_opcode", "_random", "_sha512", "_typing",
    "math",
}


def loaded_extension_modules(code: str) -> set[str]:
    report = (
        "import sys; print(' '.join(n for n, m in sys.modules.items() "
        "if 'lib-dynload' in (getattr(m, '__file__', None) or '')))"
    )
    argv = [sys.executable, "-I", "-S", "-c",
            f"import sys; sys.path.insert(0, {str(SOURCE.parent)!r}); {code}; {report}"]
    return set(subprocess.run(argv, capture_output=True, text=True, check=True).stdout.split())


def test_importing_the_cli_loads_no_new_extension_module():
    added = loaded_extension_modules("import evalgate.cli") - loaded_extension_modules("pass")
    assert added - CLI_EXTENSION_MODULES == set()
