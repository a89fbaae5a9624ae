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
# interpreter started without site, as measured on CPython 3.11. array is not
# among them, because TOOL loads it with its first record: importing it with
# the evaluator raised the benchmark's `semantic` median CLI peak from 22.426
# to 22.562 MiB (+0.136 MiB; 16 alternating runs, 2 cores, Python 3.11.7).
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


# Request pairs, an attribution and an output event without a quality signal:
# nothing in them reaches TOOL.
WITHOUT_TOOL = [
    '{"type":"request_pair","text_a":"refund my order","text_b":"please refund my order",'
    '"decision_a":"approve","decision_b":"approve"}',
    '{"type":"attribution","feature_names":["geography_risk_score","transaction_velocity",'
    '"device_age_days"],"claimed_weights":[0.5,0.3,0.2],"decision_value":0.5}',
    '{"type":"output","category":"approve","session_id":"s1","timestamp":5}',
]


def evaluation(lines: list[str]) -> str:
    return (
        "from evalgate import ProbeContext, evaluate_stream; "
        "from evalgate.simulate import FM5_BASELINE_VALUES, FM5_ORIGINAL_VALUES, reference_probe; "
        f"evaluate_stream({lines!r}, probe_context=ProbeContext("
        "reference_probe(), FM5_ORIGINAL_VALUES, FM5_BASELINE_VALUES))"
    )


def test_array_is_loaded_only_with_tools_first_record():
    assert "array" not in loaded_extension_modules(evaluation(WITHOUT_TOOL))
    for tool_record in (
        '{"type":"tool_call","tool_name":"svc","state":"PARTIAL","latency_ms":1,"timestamp":0}',
        '{"type":"output","category":"deny","session_id":"s1","timestamp":6,"quality_signal":0.9}',
    ):
        assert "array" in loaded_extension_modules(evaluation([*WITHOUT_TOOL, tool_record]))
