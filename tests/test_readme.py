"""README's Configuration table, Report table, Scenarios list, trace examples
and stated limits against the code they document: the config-key map with
EvalConfig()'s defaults, each dimension's report keys, the scenario table's
variants, each record's fields, the echo, memo and tick bounds, and the public
API."""

from __future__ import annotations

import json
import re
from pathlib import Path

import evalgate
from evalgate.cli import main
from evalgate.consistency import _MEMO_ENTRIES
from evalgate.model import _ECHO_CHARS, CONFIG_FIELDS, MAX_TICK, RECORD_TYPES, EvalConfig
from evalgate.simulate import SCENARIO_VARIANTS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# The README with every run of whitespace as one space, so a sentence may wrap.
PROSE = " ".join(README.split())


def section(heading: str) -> str:
    """The README text under a `## heading`, up to the next `## ` heading."""
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def documented_defaults() -> dict[str, str]:
    """Each key of the Configuration table and its Default cell; a row that
    names several keys gives one default each, separated by " / "."""
    defaults: dict[str, str] = {}
    for keys, cell in re.findall(r"^\| (`[^|]+`) \| ([^|]+) \|", section("Configuration"), re.M):
        names = re.findall(r"`(\w+)`", keys)
        cells = cell.strip().split(" / ")
        assert len(cells) in (1, len(names)), keys
        defaults.update(zip(names, cells * len(names) if len(cells) == 1 else cells))
    return defaults


def test_the_configuration_table_lists_every_key_with_its_default():
    documented, payload = documented_defaults(), EvalConfig().to_payload()
    assert list(documented) == list(CONFIG_FIELDS)
    for key, cell in documented.items():
        value = payload[key]
        if isinstance(value, dict):  # one value for every dimension
            (single,) = set(value.values())
            assert cell in (f"{single} each", "uniform"), key
        else:
            shown = json.loads(cell)
            assert (type(shown), shown) == (type(value), value), key


def test_the_scenarios_list_names_every_scenario_and_its_variants():
    items = section("CLI").split("Scenarios:\n\n", 1)[1].split("\n\n", 1)[0].split("\n- ")
    listed = {}
    for item in items:
        scenario, _, text = item.removeprefix("- ").partition(" ")
        listed[scenario.strip("`")] = tuple(re.findall(r"`(\w+)`", text.partition("variants")[2]))
    assert listed == {scenario: tuple(v for v in variants if v)
                      for scenario, variants in SCENARIO_VARIANTS.items()}


def test_each_trace_format_example_has_exactly_the_fields_of_its_type():
    block = section("Trace format").split("```jsonl\n", 1)[1].split("```", 1)[0]
    examples = [json.loads(line) for line in block.splitlines()]
    assert [example["type"] for example in examples] == list(RECORD_TYPES)
    for example in examples:
        assert list(example)[1:] == list(RECORD_TYPES[example["type"]].__slots__), example


def test_the_report_table_lists_each_dimensions_metadata_keys_in_order(tmp_path):
    """Trace format's examples and a second step score all five dimensions,
    with TOOL's rho_fallback set (one call gives one latency bucket)."""
    block = section("Trace format").split("```jsonl\n", 1)[1].split("```", 1)[0]
    step = json.dumps({"type": "step", "step_index": 2, "step_name": "x", "confidence": 0.9})
    trace, output = tmp_path / "trace.jsonl", tmp_path / "report.json"
    trace.write_text(f"{block}{step}\n", encoding="utf-8")
    assert main(["evaluate", "--input", str(trace), "--output", str(output)]) == 1
    report = json.loads(output.read_text(encoding="utf-8"))
    text = section("Report")
    report_keys, entry_keys = (re.findall(r"`(\w+)`", part.partition(". ")[0])
                               for part in text.split("with the keys")[1:])
    assert list(report) == report_keys
    rows = re.findall(r"^\| ([^|]+) \| ([^|]+) \|$", text, re.M)
    assert rows[0] == ("Dimension", "`metadata` keys")
    keys = {row: re.findall(r"`(\w+)`", cell) for row, cell in rows[1:]}
    dimensions = report["dimensions"]
    assert all(list(entry) == entry_keys for entry in dimensions.values())
    windows = dimensions["DISTRIBUTION"]["metadata"]["windows"]
    assert keys.pop("each entry of `windows`") == list(windows[0])
    assert keys == {f"`{name}`": list(entry["metadata"]) for name, entry in dimensions.items()}
    assert "`rho_fallback` (present only when set)" in text


def test_the_stated_echo_memo_and_tick_limits_are_the_codes():
    assert re.findall(r"echoes at most (\d+) characters", PROSE) == [str(_ECHO_CHARS)]
    assert [2 ** int(p) for p in re.findall(r"2\^(\d+) entries", PROSE)] == [_MEMO_ENTRIES] * 2
    ((low, high),) = re.findall(r"ticks \(`timestamp`\) are integers in \[-2\^(\d+), 2\^(\d+)\]", PROSE)
    assert 2 ** int(low) == 2 ** int(high) == MAX_TICK


def test_the_stated_public_api_is_evalgate_all():
    library = " ".join(section("Library use").split())
    (count,) = re.findall(r"These (\w+) names are the package's public API", library)
    assert {"four": 4, "five": 5, "six": 6}.get(count) == len(evalgate.__all__)
    assert all(re.search(rf"\b{name}\b", library) for name in evalgate.__all__)
    imported = re.findall(r"^from evalgate import (.+)$", README, re.M)
    assert {name.strip() for line in imported for name in line.split(",")} <= set(evalgate.__all__)
