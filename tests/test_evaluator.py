"""Routing, aggregation, and determinism of the evaluation pipeline."""

from __future__ import annotations

import time

import pytest

from evalgate.evaluator import aggregate, evaluate_records, evaluate_stream, split_pipelines
from evalgate.explanation import ProbeContext
from evalgate.model import (
    Dimension,
    EvalConfig,
    EvaluationError,
    MetricResult,
    OutputEvent,
    RequestPair,
    StepResult,
    serialize_trace_record,
)
from evalgate.simulate import (
    FM5_BASELINE_VALUES,
    FM5_ORIGINAL_VALUES,
    ScenarioSpec,
    generate,
    generate_fm1,
    generate_fm3,
    reference_probe,
)

CFG = EvalConfig()


def probe_context() -> ProbeContext:
    return ProbeContext(reference_probe(), FM5_ORIGINAL_VALUES, FM5_BASELINE_VALUES)


def metric(score: float, passed: bool) -> MetricResult:
    return MetricResult(score, 1.0, 0.0, passed)


def test_output_only_stream_contains_exactly_distribution():
    events = [OutputEvent(f"c{i % 5}", "s", i) for i in range(50)]
    report = evaluate_records(events, CFG)
    assert set(report.per_dimension) == {Dimension.DISTRIBUTION}


def test_total_latency_covers_reading_the_records():
    def slow_records():
        time.sleep(0.05)
        yield from (OutputEvent(f"c{i % 5}", "s", i) for i in range(10))

    assert evaluate_records(slow_records(), CFG).total_latency_ms >= 50


def test_empty_stream_is_an_error():
    with pytest.raises(EvaluationError, match="no evaluable records"):
        evaluate_records([], CFG)


def test_fm3_stream_reports_window_trajectory():
    report = evaluate_records(generate_fm3(42), CFG)
    result = report.per_dimension[Dimension.DISTRIBUTION]
    windows = result.metadata["windows"]
    assert [w["diversity"] for w in windows] == [0.200, 0.200, 0.080, 0.080, 0.030]
    assert result.metadata["diversity"] == 0.030
    assert result.confidence == 1.0
    assert not result.passed


def test_unconsumed_extra_records_do_not_change_scores():
    events = generate_fm3(42)
    base = evaluate_records(events, CFG)
    pairs = [RequestPair("a", "a", "allow", "allow") for _ in range(3)]
    extended = evaluate_records(events + pairs, CFG)
    dist_a = base.per_dimension[Dimension.DISTRIBUTION]
    dist_b = extended.per_dimension[Dimension.DISTRIBUTION]
    assert dist_a.score == dist_b.score
    assert dist_a.metadata == dist_b.metadata
    assert Dimension.CONSISTENCY in extended.per_dimension


def test_attribution_without_probe_context_is_an_error():
    records = generate(ScenarioSpec("fm5", variant="causal"))
    with pytest.raises(EvaluationError, match="probe"):
        evaluate_records(records, CFG)


def test_explanation_dimension_with_probe():
    records = generate(ScenarioSpec("fm5", seed=42, variant="proxy_first"))
    report = evaluate_records(records, CFG, probe_context=probe_context())
    result = report.per_dimension[Dimension.EXPLANATION]
    assert result.score == pytest.approx(0.25, abs=1e-12)
    assert result.metadata["decoupled"] is True
    assert not result.passed


def test_split_pipelines_on_index_reset():
    steps = generate_fm1("healthy") + generate_fm1("low1")
    pipelines = split_pipelines(steps)
    assert [len(p) for p in pipelines] == [5, 5]
    report = evaluate_records(steps, CFG)
    result = report.per_dimension[Dimension.CASCADE]
    # mean of the two pipeline scores, metadata from the worse one
    assert result.score == pytest.approx((0.906 + 0.3245) / 2, abs=1e-12)
    assert result.metadata["failure_index"] == 1


def test_single_step_pipeline_noted_not_fatal():
    records = [StepResult(1, "only", 0.9)] + [OutputEvent("c", "s", 1)]
    report = evaluate_records(records, CFG)
    assert Dimension.CASCADE not in report.per_dimension
    assert Dimension.DISTRIBUTION in report.per_dimension


def test_aggregate_single_dimension_identity():
    overall, passed = aggregate({Dimension.TOOL: metric(0.7, True)}, CFG)
    assert overall == 0.7
    assert passed


def test_aggregate_mean_and_conjunction():
    results = {
        Dimension.TOOL: metric(0.9, True),
        Dimension.DISTRIBUTION: metric(0.3, False),
    }
    overall, passed = aggregate(results, CFG)
    assert overall == pytest.approx(0.6, abs=1e-12)
    assert not passed


def test_aggregate_respects_weights_renormalized():
    cfg = EvalConfig(aggregate_weights={"tool": 3.0, "distribution": 1.0})
    results = {
        Dimension.TOOL: metric(0.8, True),
        Dimension.DISTRIBUTION: metric(0.4, True),
    }
    overall, passed = aggregate(results, cfg)
    assert overall == pytest.approx((3 * 0.8 + 0.4) / 4, abs=1e-12)
    assert passed


def test_threshold_boundary_passes_at_equality():
    report = evaluate_records(
        generate_fm1("healthy"),
        EvalConfig(dimension_thresholds={"cascade": 0.906}),
    )
    assert report.per_dimension[Dimension.CASCADE].passed
    report_above = evaluate_records(
        generate_fm1("healthy"),
        EvalConfig(dimension_thresholds={"cascade": 0.907}),
    )
    assert not report_above.per_dimension[Dimension.CASCADE].passed


def test_raising_threshold_is_monotone_on_gate():
    lenient = evaluate_records(generate_fm3(42), EvalConfig(dimension_thresholds={"distribution": 0.1}))
    strict = evaluate_records(generate_fm3(42), EvalConfig(dimension_thresholds={"distribution": 0.9}))
    assert lenient.passed and not strict.passed


def test_evaluate_stream_collects_parse_errors_with_lines():
    lines = [serialize_trace_record(r) for r in generate_fm1("healthy")]
    lines.insert(2, '{"type":"step","step_index":0,"step_name":"x","confidence":0.5}')
    lines.insert(4, "garbage")
    report, diagnostics = evaluate_stream(lines, CFG)
    assert len(diagnostics.parse_errors) == 2
    assert {e["line"] for e in diagnostics.parse_errors} == {3, 5}
    assert Dimension.CASCADE in report.per_dimension


def test_evaluate_stream_entirely_unparseable_fails():
    with pytest.raises(EvaluationError):
        evaluate_stream(["nope", "{}", '{"type":"??"}'], CFG)


def test_reports_are_deterministic_across_runs():
    records = generate(ScenarioSpec("fm2", seed=11))
    a = evaluate_records(records, CFG)
    b = evaluate_records(records, CFG)
    assert {d: (r.score, r.confidence, r.passed) for d, r in a.per_dimension.items()} == \
        {d: (r.score, r.confidence, r.passed) for d, r in b.per_dimension.items()}
    assert a.overall_score == b.overall_score
    meta_a = {d: r.metadata for d, r in a.per_dimension.items()}
    meta_b = {d: r.metadata for d, r in b.per_dimension.items()}
    assert meta_a == meta_b


def test_custom_embedding_provider_is_used():
    class FixedProvider:
        dimension = 2

        def embed(self, text: str) -> list[float]:
            return [1.0, 0.0] if len(text) % 2 == 0 else [0.0, 1.0]

    pairs = [RequestPair("ab", "abcd", "allow", "allow")]  # both even: sim 1
    report = evaluate_records(pairs, CFG, embedding_provider=FixedProvider())
    assert report.per_dimension[Dimension.CONSISTENCY].score == 1.0
    odd_pairs = [RequestPair("ab", "abc", "allow", "allow")]  # orthogonal
    report_odd = evaluate_records(odd_pairs, CFG, embedding_provider=FixedProvider())
    assert report_odd.per_dimension[Dimension.CONSISTENCY].score == 0.0


def test_tool_confidence_is_window_fill_fraction():
    records = generate(ScenarioSpec("fm2", seed=3))
    report = evaluate_records(records, CFG)
    assert report.per_dimension[Dimension.TOOL].confidence == 1.0  # 200 calls >= window 100
    few = [r for r in records if not isinstance(r, OutputEvent)][:25]
    report_few = evaluate_records(few, CFG)
    assert report_few.per_dimension[Dimension.TOOL].confidence == pytest.approx(0.25)
