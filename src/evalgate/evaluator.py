"""Orchestrates metric routing, execution, aggregation, and the gate verdict.

Records route by type: steps to CASCADE, tool calls to TOOL, output events
to DISTRIBUTION (and, when they carry a quality signal, into TOOL's quality
series), attribution cases to EXPLANATION, request pairs to CONSISTENCY.
Dimensions with no input are absent from the report rather than scored zero.
Evaluation is sequential in fixed dimension order, so a given (stream,
config) always produces the same report.

MetricResult.confidence is the filled fraction of the dimension's evaluation
window (calls/window_size for TOOL, fill/capacity for DISTRIBUTION) and 1.0
for the dimensions that evaluate complete supplied units.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from .cascade import CascadeResult, InsufficientTraceError, evaluate_cascade
from .consistency import EmbeddingProvider, HashEmbeddingProvider, consistency_score
from .distribution import DistributionSnapshot, DistributionWindow, snapshot
from .explanation import ProbeContext, evaluate_explanation
from .model import (
    RECORD_TYPES,
    AttributionCase,
    Dimension,
    EvalConfig,
    EvalReport,
    EvaluationError,
    MetricResult,
    OutputEvent,
    RequestPair,
    StepResult,
    ToolCallRecord,
    TraceParseError,
    TraceRecord,
    ValidationError,
    parse_trace_record,
)
from .reliability import LATENCY_BUCKET_COUNT, bucket_indices, evaluate_reliability
from .stats import UndefinedStatisticError

# A scored dimension: (score, confidence, metadata).
Outcome = tuple[float, float, dict[str, Any]]


@dataclass
class StreamDiagnostics:
    """Parse and evaluation problems collected while processing a stream."""

    parse_errors: list[dict[str, Any]] = field(default_factory=list)
    evaluation_notes: list[str] = field(default_factory=list)
    record_counts: dict[str, int] = field(default_factory=dict)


def split_pipelines(steps: Sequence[StepResult]) -> list[list[StepResult]]:
    """Split a flat step stream into pipelines at step_index resets.

    Step indices are strictly increasing within one pipeline, so a
    non-increasing index starts a new one.
    """
    pipelines: list[list[StepResult]] = []
    current: list[StepResult] = []
    for step in steps:
        if current and step.step_index <= current[-1].step_index:
            pipelines.append(current)
            current = []
        current.append(step)
    if current:
        pipelines.append(current)
    return pipelines


def _evaluate_cascade_dimension(
    steps: Sequence[StepResult], config: EvalConfig, diagnostics: StreamDiagnostics
) -> Outcome | None:
    results: list[CascadeResult] = []
    for pipeline in split_pipelines(steps):
        try:
            results.append(evaluate_cascade(pipeline, config))
        except InsufficientTraceError as exc:
            diagnostics.evaluation_notes.append(f"cascade: {exc}")
    if not results:
        return None
    score = sum(r.score for r in results) / len(results)
    worst = min(results, key=lambda r: r.score)
    return score, 1.0, worst.metadata()


def _quality_series_for_calls(
    calls: Sequence[ToolCallRecord], events: Sequence[OutputEvent]
) -> tuple[list[float] | None, float | None]:
    """Bucket quality-carrying events over the calls' tick span.

    Buckets with no quality event inherit the previous bucket's value
    (leading gaps take the first observed value). Returns (series, baseline)
    or (None, None) when no event carries a quality signal.
    """
    tagged = [e for e in events if e.quality_signal is not None]
    if not tagged:
        return None, None
    call_ticks = [c.timestamp for c in calls]
    lo, hi = min(call_ticks), max(call_ticks)
    assignments = bucket_indices(
        [e.timestamp for e in tagged], LATENCY_BUCKET_COUNT, lo=lo, hi=hi
    )
    sums = [0.0] * LATENCY_BUCKET_COUNT
    counts = [0] * LATENCY_BUCKET_COUNT
    for event, b in zip(tagged, assignments):
        sums[b] += event.quality_signal  # type: ignore[operator]
        counts[b] += 1
    means = [sums[b] / counts[b] if counts[b] else None for b in range(LATENCY_BUCKET_COUNT)]
    first_known = next(m for m in means if m is not None)
    series: list[float] = []
    last = first_known
    for mean in means:
        if mean is not None:
            last = mean
        series.append(last)
    return series, first_known


def _evaluate_tool_dimension(
    calls: Sequence[ToolCallRecord],
    events: Sequence[OutputEvent],
    config: EvalConfig,
    diagnostics: StreamDiagnostics,
) -> Outcome:
    quality, baseline = _quality_series_for_calls(calls, events)
    result = evaluate_reliability(calls, quality, baseline, config)
    if result.rho_fallback is not None:
        diagnostics.evaluation_notes.append(f"tool: {result.rho_fallback}")
    return result.score, min(1.0, len(calls) / config.window_size), result.metadata()


def _evaluate_distribution_dimension(
    events: Sequence[OutputEvent], config: EvalConfig
) -> Outcome:
    window = DistributionWindow(capacity=config.window_size)
    snapshots: list[DistributionSnapshot] = []
    since_snapshot = 0
    for event in events:
        window.observe(event)
        since_snapshot += 1
        if since_snapshot == config.window_size:
            snapshots.append(snapshot(window, config))
            since_snapshot = 0
    if since_snapshot or not snapshots:
        snapshots.append(snapshot(window, config))
    current = snapshots[-1]
    metadata = current.metadata()
    metadata["windows"] = [
        {"window": i + 1, **snap.metadata(), "score": snap.score}
        for i, snap in enumerate(snapshots)
    ]
    confidence = current.window_fill / config.window_size
    return current.score, confidence, metadata


def _evaluate_explanation_dimension(
    cases: Sequence[AttributionCase],
    probe_context: ProbeContext | None,
    config: EvalConfig,
) -> Outcome:
    if probe_context is None:
        raise EvaluationError(
            "attribution records present but no probe context supplied; "
            "pass a ProbeContext to evaluate the EXPLANATION dimension"
        )
    results = [
        evaluate_explanation(
            probe_context.probe,
            case,
            probe_context.baseline_values,
            probe_context.original_values,
            config,
        )
        for case in cases
    ]
    score = sum(r.acs for r in results) / len(results)
    worst = min(results, key=lambda r: r.acs)
    return score, 1.0, worst.metadata()


def _evaluate_consistency_dimension(
    pairs: Sequence[RequestPair], provider: EmbeddingProvider, config: EvalConfig
) -> Outcome:
    result = consistency_score(pairs, provider, config)
    return result.score, 1.0, result.metadata()


def evaluate_records(
    records: Iterable[TraceRecord],
    config: EvalConfig | None = None,
    probe_context: ProbeContext | None = None,
    embedding_provider: EmbeddingProvider | None = None,
    diagnostics: StreamDiagnostics | None = None,
) -> EvalReport:
    """Evaluate parsed records and return the report.

    Raises EvaluationError when nothing in the stream is evaluable.
    """
    total_start = time.perf_counter()
    config = config or EvalConfig()
    diagnostics = diagnostics if diagnostics is not None else StreamDiagnostics()
    provider = embedding_provider or HashEmbeddingProvider()

    by_type: dict[type, list[Any]] = {cls: [] for cls in RECORD_TYPES.values()}
    for record in records:
        bucket = by_type.get(type(record))
        if bucket is None:
            raise TypeError(f"not a trace record: {type(record).__name__}")
        bucket.append(record)
    diagnostics.record_counts = {name: len(by_type[cls]) for name, cls in RECORD_TYPES.items()}
    steps, calls, events, cases, pairs = (
        by_type[cls]
        for cls in (StepResult, ToolCallRecord, OutputEvent, AttributionCase, RequestPair)
    )
    # (dimension, its input records, its scorer) in report order. The lambdas
    # look each scorer up in this module when called, so it can be wrapped.
    table = (
        (Dimension.CASCADE, steps,
         lambda: _evaluate_cascade_dimension(steps, config, diagnostics)),
        (Dimension.TOOL, calls,
         lambda: _evaluate_tool_dimension(calls, events, config, diagnostics)),
        (Dimension.DISTRIBUTION, events,
         lambda: _evaluate_distribution_dimension(events, config)),
        (Dimension.EXPLANATION, cases,
         lambda: _evaluate_explanation_dimension(cases, probe_context, config)),
        (Dimension.CONSISTENCY, pairs,
         lambda: _evaluate_consistency_dimension(pairs, provider, config)),
    )
    per_dimension: dict[Dimension, MetricResult] = {}
    for dimension, inputs, scorer in table:
        start = time.perf_counter()
        try:
            outcome = scorer() if inputs else None
        except UndefinedStatisticError as exc:
            diagnostics.evaluation_notes.append(f"{dimension.value.lower()}: {exc}")
            continue
        if outcome is not None:
            score, confidence, metadata = outcome
            latency_ms = (time.perf_counter() - start) * 1000.0
            passed = score >= config.threshold(dimension)
            per_dimension[dimension] = MetricResult(score, confidence, latency_ms, passed, metadata)

    if not per_dimension:
        errors = diagnostics.parse_errors
        if errors and not any(diagnostics.record_counts.values()):
            raise EvaluationError(
                f"no evaluable records: all {len(errors)} line(s) failed to parse "
                f"(first: {errors[0]['message']})"
            )
        raise EvaluationError("no evaluable records")

    overall_score, passed = aggregate(per_dimension, config)
    return EvalReport(
        per_dimension=per_dimension,
        overall_score=overall_score,
        passed=passed,
        total_latency_ms=(time.perf_counter() - total_start) * 1000.0,
    )


def evaluate_stream(
    lines: Iterable[bytes | str],
    config: EvalConfig | None = None,
    probe_context: ProbeContext | None = None,
    embedding_provider: EmbeddingProvider | None = None,
) -> tuple[EvalReport, StreamDiagnostics]:
    """Parse a line stream and evaluate whatever parses cleanly.

    Lines may be str, or bytes that are decoded as UTF-8. Parse failures,
    undecodable lines included, are collected per line in the diagnostics;
    a stream with records but none parseable raises EvaluationError.
    """
    diagnostics = StreamDiagnostics()

    def parsed() -> Iterator[TraceRecord]:
        for number, line in enumerate(lines, start=1):
            try:
                if isinstance(line, bytes):
                    try:
                        line = line.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise TraceParseError(f"invalid UTF-8: {exc.reason}", number) from None
                stripped = line.strip()
                if stripped:
                    yield parse_trace_record(stripped, number)
            except (TraceParseError, ValidationError) as exc:
                diagnostics.parse_errors.append({"line": number, "message": str(exc)})

    report = evaluate_records(parsed(), config, probe_context, embedding_provider, diagnostics)
    return report, diagnostics


def aggregate(results: dict[Dimension, MetricResult], config: EvalConfig) -> tuple[float, bool]:
    """Weight-normalized mean over non-empty results; gate is their conjunction."""
    total_weight = sum(config.weight(d) for d in results)
    if total_weight > 0:
        overall = sum(config.weight(d) * r.score for d, r in results.items()) / total_weight
    else:
        overall = sum(r.score for r in results.values()) / len(results)
    return overall, all(r.passed for r in results.values())
