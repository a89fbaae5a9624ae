"""When the gate first fails: fm2 and fm3 replayed as cumulative evaluation
cycles through evaluate_records with the default config, each cycle's score
pinned by float.hex with its verdict, and README's table of the same cycles.

fm2 grows by one 50-call stage per cycle and fm3 by one 100-event window.
At every step the standard signal (fm2's accuracy, fm3's mean quality) moves
by no more than acc_stability_band, so it looks flat throughout. DISTRIBUTION
scores only the last window, so fm3 fails at window 3, passes again at
window 4 and fails at window 5."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from evalgate.evaluator import evaluate_records
from evalgate.model import Dimension, EvalConfig
from evalgate.simulate import generate_fm2, generate_fm3

CFG = EvalConfig()
README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

FM2_TOOL = (  # seed 42; fm2's TOOL scores do not depend on the seed
    ("0x1.e147ae147ae15p-1", True),   # 0.940
    ("0x1.8952df1b35bdep-1", True),   # 0.768
    ("0x1.3193b079840fap-1", False),  # 0.597
    ("0x1.a4dd67243f8c2p-2", False),  # 0.411
)
FM3_DISTRIBUTION = {
    42: (("0x1.7dd000dc8f1bbp-1", True), ("0x1.83b8725654acfp-1", True),
         ("0x1.29d0078b46222p-1", False), ("0x1.673bd0a472279p-1", True),
         ("0x1.711204d24bfa5p-2", False)),
    7: (("0x1.868bc21de6a0ep-1", True), ("0x1.820a042e101b2p-1", True),
        ("0x1.0d3a5f01450f0p-1", False), ("0x1.64f8da744f2ddp-1", True),
        ("0x1.5dab9090e7a8ap-2", False)),
    1: (("0x1.7b5947d2a28bap-1", True), ("0x1.7bd1d4d488737p-1", True),
        ("0x1.c5891d368079cp-2", False), ("0x1.68ff9ef7c977ep-1", True),
        ("0x1.7f3e60e7aa0a2p-2", False)),
}


def fm2_cycles(seed: int) -> list[tuple[float, float, bool]]:
    """(accuracy, TOOL score, TOOL verdict) after each stage."""
    records: list = []
    cycles = []
    for stage in generate_fm2(seed).stages:
        records += [*stage.calls, *stage.quality_events]
        tool = evaluate_records(records, CFG).per_dimension[Dimension.TOOL]
        cycles.append((stage.accuracy, tool.score, tool.passed))
    return cycles


def fm3_cycles(seed: int) -> list[tuple[float, float, bool]]:
    """(mean quality, DISTRIBUTION score, verdict) after each window."""
    events = generate_fm3(seed)
    cycles = []
    for end in range(CFG.window_size, len(events) + 1, CFG.window_size):
        result = evaluate_records(events[:end], CFG).per_dimension[Dimension.DISTRIBUTION]
        cycles.append((result.metadata["mean_quality"], result.score, result.passed))
    return cycles


def pinned(cycles: list[tuple[float, float, bool]]) -> tuple[tuple[str, bool], ...]:
    return tuple((score.hex(), passed) for _, score, passed in cycles)


def test_fm2_tool_first_fails_at_cycle_3_while_accuracy_looks_flat():
    cycles = fm2_cycles(42)
    assert pinned(cycles) == FM2_TOOL
    accuracy = [a for a, _, _ in cycles]
    assert (accuracy[0], accuracy[-1]) == (0.87, 0.84)
    assert all(abs(b - a) <= CFG.acc_stability_band for a, b in zip(accuracy, accuracy[1:]))


@pytest.mark.parametrize("seed", FM3_DISTRIBUTION)
def test_fm3_distribution_fails_at_window_3_passes_at_4_and_fails_at_5(seed):
    cycles = fm3_cycles(seed)
    assert pinned(cycles) == FM3_DISTRIBUTION[seed]
    quality = [q for q, _, _ in cycles]
    assert all(abs(b - a) <= CFG.acc_stability_band for a, b in zip(quality, quality[1:]))


@pytest.mark.parametrize("scenario, cycles", [("fm2", fm2_cycles), ("fm3", fm3_cycles)])
def test_readme_tables_the_cycles_at_seed_42(scenario, cycles):
    table = README.split(f"`{scenario}` at seed 42, cycle by cycle:", 1)[1].split("\n\n", 2)[1]
    rows = re.findall(r"^\| (\d) \| ([\d.]+) \| ([\d.]+) \| (pass|FAIL) \|$", table, re.M)
    assert rows == [(str(i), f"{signal:.2f}", f"{score:.3f}", "pass" if passed else "FAIL")
                    for i, (signal, score, passed) in enumerate(cycles(42), 1)]
