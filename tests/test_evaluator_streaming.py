"""The one-pass evaluator against the list-based one it replaced.

``evaluate_records`` folds each step, tool call and output event into its
dimension's state as it arrives. The reference below is the former
evaluator: it keeps every record in per-type lists until the stream ends and
scores each dimension from its list. Both must give the same report bytes,
the same notes in the same order, and the same error, also when ticks cross
the int64 edge in TOOL's packed columns. Two more tests pin that memory does
not grow with the number of steps and window events, and grows by a few
8-byte numbers per tool call and quality-carrying output event.
"""

from __future__ import annotations

import json
import tracemalloc
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalgate import evaluator
from evalgate.cascade import InsufficientTraceError, evaluate_cascade
from evalgate.cli import report_document
from evalgate.consistency import HashEmbeddingProvider
from evalgate.distribution import snapshot
from evalgate.evaluator import StreamDiagnostics, aggregate, evaluate_records, split_pipelines
from evalgate.explanation import ProbeContext
from evalgate.model import (
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
    ToolCallState,
)
from evalgate.reliability import (
    LATENCY_BUCKET_COUNT,
    ReliabilityResult,
    bucket_indices,
    count_states,
    detect_silent_degradation,
    percentile_nearest_rank,
    tool_reliability_score,
)
from evalgate.simulate import (
    FM5_BASELINE_VALUES,
    FM5_ORIGINAL_VALUES,
    FM5_TRUE_WEIGHTS,
    reference_probe,
)
from evalgate.stats import UndefinedStatisticError, pearson

# --- the list-based evaluator ------------------------------------------------


def reference_reliability(calls, quality, config) -> ReliabilityResult:
    prr = sum(1 for c in calls if c.state is ToolCallState.PARTIAL) / len(calls)
    rho, fallback, bucket_count = 0.0, None, 0
    if quality is None:
        fallback = "no quality signal in window"
    else:
        bucket_count = len(quality)
        assignments = bucket_indices([c.timestamp for c in calls], bucket_count)
        latencies: list[list[float]] = [[] for _ in range(bucket_count)]
        for call, b in zip(calls, assignments):
            latencies[b].append(call.latency_ms)
        p95s = [percentile_nearest_rank(lat, 0.95) for lat in latencies if lat]
        drops = [quality[0] - quality[b] for b in range(bucket_count) if latencies[b]]
        try:
            if len(p95s) < 3:
                raise UndefinedStatisticError(
                    f"only {len(p95s)} non-empty latency buckets; need >= 3"
                )
            rho = pearson(p95s, drops)
        except UndefinedStatisticError as exc:
            rho, fallback = 0.0, str(exc)
    silent = False
    if quality is not None and len(quality) >= 2:
        if config.acc_delta_cumulative:
            deltas = [quality[-1] - quality[0]]
        else:
            deltas = [b - a for a, b in zip(quality, quality[1:])]
        silent = all(detect_silent_degradation(prr, d, config) for d in deltas)
    return ReliabilityResult(prr, rho, tool_reliability_score(prr, rho), silent,
                             count_states(calls), bucket_count, fallback)


def reference_quality_series(calls, events):
    tagged = [e for e in events if e.quality_signal is not None]
    if not tagged:
        return None
    ticks = [c.timestamp for c in calls]
    assignments = bucket_indices([e.timestamp for e in tagged], LATENCY_BUCKET_COUNT,
                                 lo=min(ticks), hi=max(ticks))
    sums = [0.0] * LATENCY_BUCKET_COUNT
    counts = [0] * LATENCY_BUCKET_COUNT
    for event, b in zip(tagged, assignments):
        sums[b] += event.quality_signal
        counts[b] += 1
    means = [sums[b] / counts[b] if counts[b] else None for b in range(LATENCY_BUCKET_COUNT)]
    series, last = [], next(m for m in means if m is not None)
    for mean in means:
        if mean is not None:
            last = mean
        series.append(last)
    return series


def reference_cascade(steps, config, diagnostics):
    results = []
    for pipeline in split_pipelines(steps):
        try:
            results.append(evaluate_cascade(pipeline, config))
        except InsufficientTraceError as exc:
            diagnostics.evaluation_notes.append(f"cascade: {exc}")
    if not results:
        return None
    worst = min(results, key=lambda r: r.score)
    return sum(r.score for r in results) / len(results), 1.0, worst.metadata()


def reference_tool(calls, events, config, diagnostics):
    result = reference_reliability(calls, reference_quality_series(calls, events), config)
    if result.rho_fallback is not None:
        diagnostics.evaluation_notes.append(f"tool: {result.rho_fallback}")
    return result.score, min(1.0, len(calls) / config.window_size), result.metadata()


def reference_distribution(events, config):
    size, n = config.window_size, len(events)
    ends = [min(end, n) for end in range(size, n + size, size)]
    snapshots = [snapshot(events[max(0, end - size):end], config) for end in ends]
    current = snapshots[-1]
    metadata = current.metadata()
    metadata["windows"] = [{"window": i + 1, **s.metadata(), "score": s.score}
                           for i, s in enumerate(snapshots)]
    return current.score, current.window_fill / size, metadata


def reference_evaluate_records(records, config, probe_context, diagnostics) -> EvalReport:
    provider = HashEmbeddingProvider()
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
    table = (
        (Dimension.CASCADE, steps, lambda: reference_cascade(steps, config, diagnostics)),
        (Dimension.TOOL, calls, lambda: reference_tool(calls, events, config, diagnostics)),
        (Dimension.DISTRIBUTION, events, lambda: reference_distribution(events, config)),
        (Dimension.EXPLANATION, cases,
         lambda: evaluator._evaluate_explanation_dimension(cases, probe_context, config)),
        (Dimension.CONSISTENCY, pairs,
         lambda: evaluator._evaluate_consistency_dimension(pairs, provider, config)),
    )
    per_dimension = {}
    for dimension, inputs, scorer in table:
        try:
            outcome = scorer() if inputs else None
        except UndefinedStatisticError as exc:
            diagnostics.evaluation_notes.append(f"{dimension.value.lower()}: {exc}")
            continue
        if outcome is not None:
            score, confidence, metadata = outcome
            passed = score >= config.threshold(dimension)
            per_dimension[dimension] = MetricResult(score, confidence, passed, metadata)
    if not per_dimension:
        raise EvaluationError("no evaluable records")
    overall, passed = aggregate(per_dimension, config)
    return EvalReport(per_dimension, overall, passed)


# --- mixed streams -----------------------------------------------------------

FEATURES = tuple(FM5_TRUE_WEIGHTS)
ticks = st.one_of(st.integers(-50, 50), st.sampled_from([-2**1022, 2**1022]),
                  st.integers(-2**1022, 2**1022))
units = st.floats(0.0, 1.0)
# Few distinct confidences, so that pipelines tie for the worst score.
confidences = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), units)


@st.composite
def step_runs(draw) -> list[StepResult]:
    """1-6 steps with consecutive indices; a run that starts at or below the
    previous run's last index starts a new pipeline, one above it continues it."""
    start = draw(st.integers(1, 4))
    run = draw(st.lists(confidences, min_size=1, max_size=6))
    return [StepResult(start + i, f"s{i}", c) for i, c in enumerate(run)]


@st.composite
def tool_calls(draw) -> list[ToolCallRecord]:
    latency = draw(st.one_of(st.floats(0.0, 1e4), st.floats(1e307, 1.7976931348623157e308)))
    state = draw(st.sampled_from(list(ToolCallState)))
    return [ToolCallRecord("svc", state, latency, draw(ticks))]


@st.composite
def output_events(draw) -> list[OutputEvent]:
    category = draw(st.sampled_from(["a", "b", "c", "d"]))
    quality = draw(st.one_of(st.none(), units))
    return [OutputEvent(category, "s", draw(ticks), quality)]


@st.composite
def attribution_cases(draw) -> list[AttributionCase]:
    names = draw(st.permutations(FEATURES))[:draw(st.integers(2, len(FEATURES)))]
    weights = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(names),
                                   max_size=len(names))), reverse=True)
    return [AttributionCase(tuple(names), tuple(weights), draw(units))]


@st.composite
def request_pairs(draw) -> list[RequestPair]:
    words = st.sampled_from(["refund", "my", "order", "please", "cancel", "now"])
    text_a, text_b = (" ".join(draw(st.lists(words, min_size=1, max_size=4))) for _ in "ab")
    decision_a, decision_b = (draw(st.sampled_from(["approve", "deny"])) for _ in "ab")
    return [RequestPair(text_a, text_b, decision_a, decision_b)]


@st.composite
def mixed_streams(draw):
    chunks = draw(st.lists(
        st.one_of(tool_calls(), output_events(), attribution_cases(), request_pairs()),
        max_size=30,
    ))
    for run in draw(st.lists(step_runs(), max_size=10)):
        chunks.insert(draw(st.integers(0, len(chunks))), run)
    records: list[Any] = [record for chunk in chunks for record in chunk]
    if draw(st.booleans()):  # a run with no quality events
        for record in records:
            if isinstance(record, OutputEvent):
                record.quality_signal = None
    if draw(st.sampled_from([False] * 9 + [True])):  # a stray object
        records.insert(draw(st.integers(0, len(records))), {"type": "step"})
    config = EvalConfig(window_size=draw(st.sampled_from([1, 2, 5, 100, 10**30])),
                        k_top=draw(st.integers(1, 5)),
                        acc_delta_cumulative=draw(st.booleans()))
    probe = None
    if draw(st.integers(0, 4)):
        probe = ProbeContext(reference_probe(), FM5_ORIGINAL_VALUES, FM5_BASELINE_VALUES)
    return records, config, probe


def outcome(evaluate, records, config, probe) -> tuple:
    """The report bytes and the notes, or the error's type and text, with
    the diagnostics as the call left them."""
    diagnostics = StreamDiagnostics()
    try:
        report = evaluate(records, config, probe, diagnostics)
    except (EvaluationError, TypeError) as exc:
        return type(exc), str(exc), diagnostics.evaluation_notes, diagnostics.record_counts
    text = json.dumps(report_document(report, config, diagnostics), indent=2)
    return text, diagnostics.evaluation_notes


def one_pass(records, config, probe, diagnostics) -> EvalReport:
    return evaluate_records(iter(records), config, probe_context=probe, diagnostics=diagnostics)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mixed_streams())
def test_one_pass_evaluator_matches_the_list_based_one(inputs):
    records, config, probe = inputs
    assert outcome(one_pass, records, config, probe) == \
        outcome(reference_evaluate_records, records, config, probe)


# --- ticks at the int64 edge --------------------------------------------------

# Validation admits ticks up to ±2**1022; TOOL's packed tick columns hold
# int64, so the first tick outside it switches a column to a list mid-stream.
INT64_EDGES = [2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**1022, -2**1022]


def tool_records(ticks: list[int]) -> list[Any]:
    """A tool call and a quality-carrying output event at each tick."""
    states = list(ToolCallState)
    records: list[Any] = []
    for i, tick in enumerate(ticks):
        records.append(ToolCallRecord("svc", states[i % 3], 100.0 + 37.5 * (i % 4), tick))
        records.append(OutputEvent("a", "s", tick, 0.9 - i / 20))
    return records


@pytest.mark.parametrize("edge", INT64_EDGES,
                         ids=["2**63-1", "2**63", "-2**63", "-2**63-1", "2**1022", "-2**1022"])
def test_ticks_at_the_int64_edge_match_the_list_based_evaluator(edge):
    inward = -1 if edge > 0 else 1
    # Ticks spread over the span from 0 to the edge, and ten adjacent ticks
    # that end at it, which 8-byte floats would not tell apart.
    for ticks in ([0, 1, edge // 4, 2, edge // 2, edge, edge * 3 // 4, 3, edge],
                  [edge + inward * k for k in range(9, -1, -1)]):
        records = tool_records(ticks)
        for config in (EvalConfig(), EvalConfig(acc_delta_cumulative=True)):
            assert outcome(one_pass, records, config, None) == \
                outcome(reference_evaluate_records, records, config, None)

        tool = evaluator._ToolColumns()
        for record in records:
            if isinstance(record, ToolCallRecord):
                tool.observe_call(record)
            else:
                tool.observe_quality(record)
        outside = not -2**63 <= edge < 2**63
        assert (type(tool.ticks) is list) is (type(tool.quality_ticks) is list) is outside


# --- bounded memory ----------------------------------------------------------

# Allowance per DISTRIBUTION window: its snapshot, kept until the end, and
# its metadata["windows"] entry. Both measure about 500 bytes together.
WINDOW_BYTES = 640
# Allowance per tool call and quality-carrying output event together: 16 B
# each in TOOL's packed columns, and the finish step's bucket assignments and
# latency buckets for the call. Both measure about 37 bytes together; boxed in
# lists, they took about 130.
TOOL_PAIR_BYTES = 40


def steps_and_events(n: int):
    """n steps and output events without a quality signal."""
    for i in range(n):
        if i % 2:
            yield OutputEvent(f"c{i % 7}", "session", i)
        else:
            yield StepResult(i // 2 % 4 + 1, "step", 0.9)


def calls_and_quality_events(n: int):
    """n tool calls and n output events with a quality signal."""
    states = list(ToolCallState)
    for i in range(n):
        yield ToolCallRecord("svc", states[i % 3], float(i % 997), i)
        yield OutputEvent(f"c{i % 7}", "session", i, i % 101 / 100)


def traced_peak(records, config: EvalConfig) -> int:
    """tracemalloc's peak while evaluate_records consumes the records."""
    tracemalloc.start()
    try:
        evaluate_records(records, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_steps_and_window_events_are_not_retained():
    config = EvalConfig()
    for n in (2_000, 40_000):  # the first runs fill one-time caches
        traced_peak(steps_and_events(n), config)
    small = traced_peak(steps_and_events(2_000), config)
    large = traced_peak(steps_and_events(40_000), config)
    extra_windows = (40_000 - 2_000) // 2 // config.window_size
    assert large - small < 8_192 + extra_windows * WINDOW_BYTES


def test_tool_keeps_a_few_packed_numbers_per_call_and_quality_event():
    config = EvalConfig()
    for n in (4_000, 40_000):  # the first runs fill one-time caches
        traced_peak(calls_and_quality_events(n), config)
    small = traced_peak(calls_and_quality_events(4_000), config)
    large = traced_peak(calls_and_quality_events(40_000), config)
    extra_windows = (40_000 - 4_000) // config.window_size
    allowance = (40_000 - 4_000) * TOOL_PAIR_BYTES + extra_windows * WINDOW_BYTES
    assert large - small < 8_192 + allowance
