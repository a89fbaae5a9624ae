"""Scenario generators: determinism, parse-cleanliness, pinned signatures."""

from __future__ import annotations

import pytest

from evalgate import cli
from evalgate.model import EvalConfig, OutputEvent, parse_trace_record, serialize_trace_record
from evalgate.distribution import snapshot
from evalgate.reliability import partial_response_rate
from evalgate.simulate import (
    FM1_VARIANTS,
    FM2_ACCURACY,
    FM3_WINDOW_QUALITY,
    SCENARIO_VARIANTS,
    ScenarioSpec,
    generate,
    generate_fm1,
    generate_fm2,
    generate_fm3,
    generate_fm5,
)

CFG = EvalConfig()

ALL_SPECS = [
    ScenarioSpec("fm1", variant="healthy"),
    ScenarioSpec("fm1", variant="low1"),
    ScenarioSpec("fm1", variant="low2"),
    ScenarioSpec("fm1", variant="multi"),
    ScenarioSpec("fm2", seed=42),
    ScenarioSpec("fm3", seed=42),
    ScenarioSpec("fm5", seed=42, variant="causal"),
    ScenarioSpec("fm5", seed=42, variant="proxy_first"),
    ScenarioSpec("fm5", seed=42, variant="proxy_second"),
]


# Whether the trace and the report change between seeds 42 and 7, as README's
# paragraph after the Scenarios list states: fm1 draws nothing, fm2's draws
# and fm5's noise never reach the report, and fm3's do.
SEED_REACHES = {"fm1": (False, False), "fm2": (True, False), "fm3": (True, True),
                "fm5": (True, False)}


@pytest.mark.parametrize("scenario, variant", [(s, v) for s, vs in SCENARIO_VARIANTS.items()
                                               for v in vs])
def test_the_seed_reaches_the_trace_and_report_that_the_readme_says(tmp_path, capsys,
                                                                    scenario, variant):
    runs = []
    for seed in (42, 7):
        trace, report = tmp_path / f"{seed}.jsonl", tmp_path / f"{seed}.json"
        assert cli.main(["simulate", "--scenario", scenario, "--variant", variant,
                         "--seed", str(seed), "--output", str(trace)]) == 0
        code = cli.main(["evaluate", "--input", str(trace), "--output", str(report)])
        runs.append((trace.read_bytes(), report.read_bytes(), code))
    capsys.readouterr()
    (trace_42, report_42, code_42), (trace_7, report_7, code_7) = runs
    assert code_42 == code_7
    assert (trace_42 != trace_7, report_42 != report_7) == SEED_REACHES[scenario]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.scenario}-{s.variant or 'base'}")
def test_identical_spec_gives_identical_stream(spec):
    first = [serialize_trace_record(r) for r in generate(spec)]
    second = [serialize_trace_record(r) for r in generate(spec)]
    assert first == second


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.scenario}-{s.variant or 'base'}")
def test_every_generated_record_parses_back(spec):
    for record in generate(spec):
        assert parse_trace_record(serialize_trace_record(record)) == record


def test_different_seeds_differ():
    a = [serialize_trace_record(r) for r in generate_fm3(1)]
    b = [serialize_trace_record(r) for r in generate_fm3(2)]
    assert a != b


def test_fm1_pinned_vectors():
    assert tuple(s.confidence for s in generate_fm1("low1")) == FM1_VARIANTS["low1"]
    assert [s.step_index for s in generate_fm1("healthy")] == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError, match="unknown fm1 variant 'sideways'; expected one of "
                                         r"\('healthy', 'low1', 'low2', 'multi'\)"):
        generate(ScenarioSpec("fm1", variant="sideways"))


def test_fm2_exact_partial_counts_any_seed():
    for seed in (0, 1, 42, 2**40):
        scenario = generate_fm2(seed)
        rates = [partial_response_rate(stage.calls) for stage in scenario.stages]
        assert rates == pytest.approx([0.040, 0.220, 0.400, 0.580], abs=1e-15)
        assert [stage.accuracy for stage in scenario.stages] == list(FM2_ACCURACY)
        assert all(len(stage.calls) == 50 for stage in scenario.stages)


def test_fm3_quality_sequence_pinned_for_any_seed():
    for seed in (0, 5, 42, 12345):
        events = generate_fm3(seed)
        assert len(events) == 500
        per_window = [
            {e.quality_signal for e in events[w * 100:(w + 1) * 100]} for w in range(5)
        ]
        assert per_window == [{q} for q in FM3_WINDOW_QUALITY]


def test_fm3_window_structure():
    events = generate_fm3(42)
    snaps = [snapshot(events[w * 100:(w + 1) * 100], CFG) for w in range(5)]
    assert [s.diversity for s in snaps] == [0.200, 0.200, 0.080, 0.080, 0.030]
    assert snaps[4].repeat_rate == 1.000
    assert snaps[0].entropy >= 0.95 and snaps[1].entropy >= 0.95
    assert snaps[4].entropy <= 0.90


def test_fm3_category_universe_narrows():
    events = generate_fm3(42)
    universes = [
        {e.category for e in events[w * 100:(w + 1) * 100]} for w in range(5)
    ]
    assert [len(u) for u in universes] == [20, 20, 8, 8, 3]
    assert universes[4] <= universes[2] <= universes[0]


def test_fm5_decision_identical_across_variants():
    decisions = {
        generate_fm5(variant, 42).case.decision_value
        for variant in ("causal", "proxy_first", "proxy_second")
    }
    assert len(decisions) == 1


def test_fm5_claimed_weights_descending_with_noise():
    for seed in range(10):
        case = generate_fm5("proxy_first", seed).case
        w = case.claimed_weights
        assert w[0] >= w[1] >= w[2] >= 0.0
    assert generate_fm5("causal", 0, noise_scale=0.0).case.claimed_weights == (0.55, 0.35, 0.05)


def test_fm5_rejects_unknown_variant():
    with pytest.raises(ValueError, match="unknown fm5 variant 'inverted'; expected one of "
                                         r"\('causal', 'proxy_first', 'proxy_second'\)"):
        generate(ScenarioSpec("fm5", 42, "inverted"))


def test_scenario_spec_validation_and_defaults():
    with pytest.raises(ValueError, match="unknown scenario 'fm9'"):
        generate(ScenarioSpec("fm9"))
    assert [SCENARIO_VARIANTS[s][0] for s in ("fm1", "fm5", "fm2")] == ["healthy", "causal", ""]
    assert generate(ScenarioSpec("fm5")) == generate(ScenarioSpec("fm5", variant="causal"))
    with pytest.raises(ValueError, match="^scenario fm3 takes no variant$"):
        generate(ScenarioSpec("fm3", variant="wide"))


def test_fm2_stream_interleaves_quality_events():
    records = generate_fm2(42).records
    events = [r for r in records if isinstance(r, OutputEvent)]
    assert len(events) == 40
    assert all(e.quality_signal is not None for e in events)
