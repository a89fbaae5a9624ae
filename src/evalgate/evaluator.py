"""Orchestrates metric routing, execution, aggregation, and the gate verdict.

Records route by type: steps to CASCADE, tool calls to TOOL, output events
to DISTRIBUTION (and, when they carry a quality signal, into TOOL's quality
series), attribution cases to EXPLANATION, request pairs to CONSISTENCY.
The record stream is consumed once (evaluate_stream decodes, parses, counts
and folds each line in one loop), and each step, tool call and output event
is folded into its dimension's state as it arrives, so none of them is kept:
CASCADE holds only the open pipeline and folds each closed one into a
running mean and worst result; TOOL keeps 16 B per call (tick and latency)
and per quality-carrying event (tick and quality) while ticks fit int64, and
the calls per state; DISTRIBUTION keeps the last window_size events and one
snapshot per window. Attribution cases and request pairs are kept in lists.
Each dimension's finish step runs after the last record, in fixed dimension
order, so a given (stream, config) always produces the same report.
Dimensions with no input are absent from the report rather than scored zero.

MetricResult.confidence is the filled fraction of the dimension's evaluation
window (calls/window_size for TOOL, fill/window_size for DISTRIBUTION) and 1.0
for the dimensions that evaluate complete supplied units. The report holds
no timing: the same input always gives an equal EvalReport.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from collections.abc import Callable, Iterable, MutableSequence, Sequence
from dataclasses import dataclass, field
from typing import Any

from .cascade import CascadeResult, evaluate_cascade
from .consistency import EmbeddingProvider, HashEmbeddingProvider, consistency_score
from .distribution import DistributionSnapshot, snapshot
from .explanation import ExplanationResult, ProbeContext, evaluate_explanation
from .model import (
    RECORD_TYPES,
    AttributionCase,
    Dimension,
    EvalConfig,
    EvalReport,
    EvaluationError,
    InputError,
    MetricResult,
    OutputEvent,
    RequestPair,
    StepResult,
    ToolCallRecord,
    ToolCallState,
    TraceParseError,
    TraceRecord,
    parse_trace_record,
    report_entry,
)
from .reliability import LATENCY_BUCKET_COUNT, bucket_indices, evaluate_reliability
from .stats import UndefinedStatisticError, sequential_sum

# A scored dimension: (score, confidence, metadata).
Outcome = tuple[float, float, dict[str, Any]]


@dataclass
class StreamDiagnostics:
    """Parse and evaluation problems collected while processing a stream."""

    parse_errors: list[dict[str, Any]] = field(default_factory=list)
    evaluation_notes: list[str] = field(default_factory=list)
    record_counts: dict[str, int] = field(default_factory=dict)
    # Per wire type: the lines that named it and were rejected, and, for each
    # type with rejections and no accepted record, the dimension left unscored.
    rejected_counts: dict[str, int] = field(default_factory=dict)
    unscored: dict[str, Dimension] = field(default_factory=dict)


def _starts_pipeline(pipeline: Sequence[StepResult], step: StepResult) -> bool:
    """Step indices are strictly increasing within one pipeline, so a
    non-increasing index starts a new one."""
    return bool(pipeline) and step.step_index <= pipeline[-1].step_index


def split_pipelines(steps: Sequence[StepResult]) -> list[list[StepResult]]:
    """Split a flat step stream into pipelines at step_index resets."""
    pipelines: list[list[StepResult]] = []
    current: list[StepResult] = []
    for step in steps:
        if _starts_pipeline(current, step):
            pipelines.append(current)
            current = []
        current.append(step)
    if current:
        pipelines.append(current)
    return pipelines


class _Cascade:
    """CASCADE state: the open pipeline, and the closed ones folded into a
    running total and count of their scores, the first worst result, and
    the too-short notes in order."""

    __slots__ = ("config", "pipeline", "total", "count", "worst", "notes")

    def __init__(self, config: EvalConfig) -> None:
        self.config = config
        self.pipeline: list[StepResult] = []
        # The same additions, in the same order, as stats.sequential_sum over
        # the scores.
        self.total = 0.0
        self.count = 0
        self.worst: CascadeResult | None = None
        self.notes: list[str] = []

    def observe(self, step: StepResult) -> None:
        if _starts_pipeline(self.pipeline, step):
            self.close()
        self.pipeline.append(step)

    def close(self) -> None:
        pipeline, self.pipeline = self.pipeline, []
        try:
            result = evaluate_cascade(pipeline, self.config)
        except UndefinedStatisticError as exc:
            self.notes.append(f"cascade: {exc}")
            return
        self.total += result.score
        self.count += 1
        if self.worst is None or result.score < self.worst.score:
            self.worst = result


class _ToolColumns:
    """TOOL state: each call's tick and latency, the calls per state, and the
    tick and quality of each output event that carries a quality signal.

    From TOOL's first record on, the columns are arrays of 8-byte numbers;
    a tick outside int64 turns its column into a list that keeps it exact."""

    __slots__ = ("ticks", "latencies", "states", "quality_ticks", "qualities")

    def __init__(self) -> None:
        self.ticks: MutableSequence[int] = []
        self.latencies: MutableSequence[float] = []
        self.states = {state.value: 0 for state in ToolCallState}
        self.quality_ticks: MutableSequence[int] = []
        self.qualities: MutableSequence[float] = []

    def pack(self) -> None:
        from array import array
        self.ticks, self.latencies = array("q"), array("d")
        self.quality_ticks, self.qualities = array("q"), array("d")

    def observe_call(self, call: ToolCallRecord) -> None:
        if type(self.latencies) is list:  # TOOL's first record
            self.pack()
        try:
            self.ticks.append(call.timestamp)
        except OverflowError:
            self.ticks = [*self.ticks, call.timestamp]
        self.latencies.append(call.latency_ms)
        self.states[call.state] += 1

    def observe_quality(self, event: OutputEvent) -> None:
        if type(self.latencies) is list:  # TOOL's first record
            self.pack()
        try:
            self.quality_ticks.append(event.timestamp)
        except OverflowError:
            self.quality_ticks = [*self.quality_ticks, event.timestamp]
        self.qualities.append(event.quality_signal)  # type: ignore[arg-type]


class _Windows:
    """DISTRIBUTION state: the last window_size output events, how many have
    been seen, a snapshot after every window_size-th one; and TOOL's columns."""

    __slots__ = ("config", "tool", "window", "seen", "snapshots")

    def __init__(self, config: EvalConfig, tool: _ToolColumns) -> None:
        self.config = config
        self.tool = tool
        # deque's maxlen must fit a C ssize_t; no stream fills a larger window.
        self.window: deque[OutputEvent] = deque(maxlen=min(config.window_size, sys.maxsize))
        self.seen = 0
        self.snapshots: list[DistributionSnapshot] = []

    def observe(self, event: OutputEvent) -> None:
        self.window.append(event)
        self.seen += 1
        if self.seen % self.config.window_size == 0:
            self.snapshots.append(snapshot(self.window, self.config))
        if event.quality_signal is not None:
            self.tool.observe_quality(event)


def _evaluate_cascade_dimension(
    cascade: _Cascade, diagnostics: StreamDiagnostics
) -> Outcome | None:
    """Close the open pipeline, which holds at least the last step; the mean
    score and four of the worst pipeline's fields, step_confidences as a list."""
    cascade.close()
    diagnostics.evaluation_notes.extend(cascade.notes)
    worst = cascade.worst
    if worst is None:
        return None
    return cascade.total / cascade.count, 1.0, {
        "mean_confidence": worst.mean_confidence, "cis": worst.cis,
        "failure_index": worst.failure_index, "step_confidences": list(worst.step_confidences)}


def _quality_series_for_calls(
    call_ticks: Sequence[int], quality_ticks: Sequence[int], qualities: Sequence[float]
) -> list[float] | None:
    """Bucket the quality-carrying events' qualities over the calls' tick span.

    Buckets with no quality event inherit the previous bucket's value
    (leading gaps take the first observed value). Returns None when no
    event carries a quality signal.
    """
    if not qualities:
        return None
    assignments = bucket_indices(
        quality_ticks, LATENCY_BUCKET_COUNT, lo=min(call_ticks), hi=max(call_ticks)
    )
    sums = [0.0] * LATENCY_BUCKET_COUNT
    counts = [0] * LATENCY_BUCKET_COUNT
    for quality, b in zip(qualities, assignments):
        sums[b] += quality
        counts[b] += 1
    means = [sums[b] / counts[b] if counts[b] else None for b in range(LATENCY_BUCKET_COUNT)]
    series: list[float] = []
    last = next(m for m in means if m is not None)
    for mean in means:
        if mean is not None:
            last = mean
        series.append(last)
    return series


def _evaluate_tool_dimension(
    tool: _ToolColumns, config: EvalConfig, diagnostics: StreamDiagnostics
) -> Outcome:
    quality = _quality_series_for_calls(tool.ticks, tool.quality_ticks, tool.qualities)
    tool.quality_ticks = tool.qualities = []  # freed before the calls are bucketed
    result = evaluate_reliability(tool.ticks, tool.latencies, tool.states, quality, config)
    entry = report_entry(result)
    if result.rho_fallback is None:
        del entry["rho_fallback"]
    else:
        diagnostics.evaluation_notes.append(f"tool: {result.rho_fallback}")
    return result.score, min(1.0, len(tool.ticks) / config.window_size), entry


def _evaluate_distribution_dimension(windows: _Windows) -> Outcome:
    """The snapshots taken every window_size events, and one more at the end
    when the stream stopped inside a window; the last one is current."""
    config = windows.config
    snapshots = windows.snapshots
    if windows.seen % config.window_size:
        snapshots = [*snapshots, snapshot(windows.window, config)]
    current = snapshots[-1]
    metadata = report_entry(current)
    metadata["windows"] = [{"window": i, **snap._asdict()} for i, snap in enumerate(snapshots, 1)]
    confidence = current.window_fill / config.window_size
    return current.score, confidence, metadata


def _evaluate_explanation_dimension(
    cases: Sequence[AttributionCase],
    probe_context: ProbeContext | None,
    config: EvalConfig,
) -> Outcome:
    """Mean ACS over the cases; the worst case's metadata.

    The probe context is fixed for the call, so a case's impacts depend only
    on its feature names, and ACS sees the claimed weights only through
    stats.fractional_ranks, which reads each rank from the weight's first and
    last positions among the sorted weights. The first positions fix the last
    ones, as a run of equal weights ends where the next begins. So each
    distinct (feature names, first positions) is scored once, with
    one probe determinism re-check, and every case that repeats it reuses the
    result. The memo is local to the call: another call may bring another
    probe.
    """
    if probe_context is None:
        raise EvaluationError(
            "attribution records present but no probe context supplied; "
            "pass a ProbeContext to evaluate the EXPLANATION dimension"
        )
    memo: dict[tuple[tuple[str, ...], tuple[int, ...]], ExplanationResult] = {}
    results: list[ExplanationResult] = []
    for case in cases:
        weights = case.claimed_weights
        # Not tuple(map(...)): tuple() builds that by shrinking a larger tuple,
        # and the shrunk keys, once dropped, pile up on the tuple free list
        # (0.13 MiB of peak RSS on the benchmark's `semantic` trace).
        key = (case.feature_names, (*map(sorted(weights).index, weights),))
        result = memo.get(key)
        if result is None:
            result = memo[key] = evaluate_explanation(
                probe_context.probe,
                case,
                probe_context.baseline_values,
                probe_context.original_values,
                config,
            )
        results.append(result)
    score = sequential_sum(r.acs for r in results) / len(results)
    worst = min(results, key=lambda r: r.acs)
    return score, 1.0, report_entry(worst)


def _evaluate_consistency_dimension(
    pairs: Sequence[RequestPair], provider: EmbeddingProvider, config: EvalConfig
) -> Outcome:
    result = consistency_score(pairs, provider, config)
    return result.score, 1.0, report_entry(result)


def _folds(
    config: EvalConfig | None, probe_context: ProbeContext | None,
    embedding_provider: EmbeddingProvider | None, diagnostics: StreamDiagnostics,
) -> tuple[dict[type, Callable[[Any], None]], dict[type, int], Callable[[], EvalReport]]:
    """One evaluation: the fold of each record type, the records seen per type,
    and the finish step, which raises EvaluationError when nothing is evaluable."""
    config = config or EvalConfig()
    provider = embedding_provider or HashEmbeddingProvider()
    cascade, tool = _Cascade(config), _ToolColumns()
    windows = _Windows(config, tool)
    cases: list[AttributionCase] = []
    pairs: list[RequestPair] = []

    # Per record type, in report order: what its records feed, the dimension
    # they are scored in, and that dimension's finish step with its arguments.
    table = (
        (StepResult, cascade.observe, Dimension.CASCADE,
         _evaluate_cascade_dimension, (cascade, diagnostics)),
        (ToolCallRecord, tool.observe_call, Dimension.TOOL,
         _evaluate_tool_dimension, (tool, config, diagnostics)),
        (OutputEvent, windows.observe, Dimension.DISTRIBUTION,
         _evaluate_distribution_dimension, (windows,)),
        (AttributionCase, cases.append, Dimension.EXPLANATION,
         _evaluate_explanation_dimension, (cases, probe_context, config)),
        (RequestPair, pairs.append, Dimension.CONSISTENCY,
         _evaluate_consistency_dimension, (pairs, provider, config)),
    )
    routes: dict[type, Callable[[Any], None]] = {kind: route for kind, route, *_ in table}
    counts = dict.fromkeys(routes, 0)

    def finish() -> EvalReport:
        diagnostics.record_counts = {name: counts[cls] for name, cls in RECORD_TYPES.items()}
        dimensions = {kind: dimension for kind, _, dimension, *_ in table}
        diagnostics.unscored = {name: dimensions[cls] for name, cls in RECORD_TYPES.items()
                                if diagnostics.rejected_counts.get(name) and not counts[cls]}
        per_dimension: dict[Dimension, MetricResult] = {}
        for kind, _, dimension, finish_dimension, args in table:
            try:
                outcome = finish_dimension(*args) if counts[kind] else None
            except UndefinedStatisticError as exc:
                diagnostics.evaluation_notes.append(f"{dimension.value.lower()}: {exc}")
                continue
            if outcome is not None:
                score, confidence, metadata = outcome
                passed = score >= config.threshold(dimension)
                per_dimension[dimension] = MetricResult(score, confidence, passed, metadata)

        if not per_dimension:
            errors = diagnostics.parse_errors
            if errors and not any(diagnostics.record_counts.values()):
                raise EvaluationError(
                    f"no evaluable records: all {len(errors)} line(s) failed to parse "
                    f"(first: {errors[0]['message']})"
                )
            raise EvaluationError("no evaluable records")

        overall_score, passed = aggregate(per_dimension, config)
        return EvalReport(per_dimension=per_dimension, overall_score=overall_score, passed=passed)

    return routes, counts, finish


def evaluate_records(
    records: Iterable[TraceRecord],
    config: EvalConfig | None = None,
    probe_context: ProbeContext | None = None,
    embedding_provider: EmbeddingProvider | None = None,
    diagnostics: StreamDiagnostics | None = None,
) -> EvalReport:
    """Evaluate parsed records and return the report.

    Raises TypeError for an item that is not a trace record, and
    EvaluationError when nothing in the stream is evaluable.
    """
    diagnostics = diagnostics if diagnostics is not None else StreamDiagnostics()
    routes, counts, finish = _folds(config, probe_context, embedding_provider, diagnostics)
    for record in records:
        kind = type(record)
        route = routes.get(kind)
        if route is None:
            raise TypeError(f"not a trace record: {kind.__name__}")
        counts[kind] += 1
        route(record)
    return finish()


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
    errors, rejected = diagnostics.parse_errors, diagnostics.rejected_counts
    routes, counts, finish = _folds(config, probe_context, embedding_provider, diagnostics)
    for number, line in enumerate(lines, start=1):
        try:
            if isinstance(line, bytes):
                try:
                    line = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise TraceParseError(f"invalid UTF-8: {exc.reason}", number) from None
            line = line.strip()
            if not line:
                continue
            record = parse_trace_record(line, number)
        except InputError as exc:
            errors.append({"line": number, "message": str(exc)})
            if exc.record_type is not None:
                rejected[exc.record_type] = rejected.get(exc.record_type, 0) + 1
            continue
        kind = type(record)
        counts[kind] += 1
        routes[kind](record)
    return finish(), diagnostics


def aggregate(results: dict[Dimension, MetricResult], config: EvalConfig) -> tuple[float, bool]:
    """Weight-normalized mean over non-empty results; gate is their conjunction.

    Weights below 1 are scaled by the power of two that puts the largest in
    [1, 2): exact, and a subnormal weight keeps its precision.
    """
    weights = [config.weight(d) for d in results]
    largest = max(weights)
    if 0.0 < largest < 1.0:
        shift = 1 - math.frexp(largest)[1]
        weights = [math.ldexp(w, shift) for w in weights]
    total_weight = sequential_sum(weights)
    if total_weight > 0:
        weighted = sequential_sum(w * r.score for w, r in zip(weights, results.values()))
        overall = weighted / total_weight
    else:
        overall = sequential_sum(r.score for r in results.values()) / len(results)
    return overall, all(r.passed for r in results.values())
