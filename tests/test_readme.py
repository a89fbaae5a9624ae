"""README's Configuration table and Scenarios list against the code they
document: the config-key map with EvalConfig()'s defaults, and the scenario
table's variants."""

from __future__ import annotations

import json
import re
from pathlib import Path

from evalgate.model import CONFIG_FIELDS, EvalConfig
from evalgate.simulate import SCENARIO_VARIANTS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


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
