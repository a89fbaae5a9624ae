"""The one-pass evaluator against the reference oracle (same report bytes,
notes and errors, also with ticks at TOOL's int64 edge), the range of every
metric result, metamorphic relations
over mixed streams of all five record types, and two memory bounds: nothing
grows with steps and window events, a few 8-byte numbers per tool call and
quality-carrying output event."""

from __future__ import annotations

import dataclasses
import json
import re
import tracemalloc
from collections import deque
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from evalgate import evaluator
from evalgate.cli import report_document
from evalgate.evaluator import StreamDiagnostics, evaluate_records, evaluate_stream
from evalgate.explanation import ProbeContext
from evalgate.model import (
    AttributionCase,
    Dimension,
    EvalConfig,
    EvaluationError,
    OutputEvent,
    RequestPair,
    StepResult,
    ToolCallRecord,
    ToolCallState,
    serialize_trace_record,
)
from evalgate.simulate import (
    FM5_BASELINE_VALUES,
    FM5_ORIGINAL_VALUES,
    FM5_TRUE_WEIGHTS,
    reference_probe,
)

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
def tool_span(draw) -> list[Any]:
    """Tool calls spread over a wide tick span and quality-tagged events only
    in its upper half, so that TOOL's leading quality buckets are empty."""
    span = draw(st.integers(100, 10**6))
    calls = [ToolCallRecord("svc", draw(st.sampled_from(list(ToolCallState))),
                            draw(st.floats(0.0, 1e4)), tick)
             for tick in draw(st.lists(st.integers(0, span), min_size=2, max_size=12)) + [0, span]]
    events = [OutputEvent("a", "s", tick, draw(units))
              for tick in draw(st.lists(st.integers(span // 2, span), min_size=1, max_size=8))]
    return calls + events


@st.composite
def mixed_streams(draw):
    chunks = draw(st.lists(
        st.one_of(tool_calls(), output_events(), attribution_cases(), request_pairs()),
        max_size=30,
    ))
    if draw(st.booleans()):
        for record in draw(tool_span()):
            chunks.insert(draw(st.integers(0, len(chunks))), [record])
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


def engine(records, config, probe, diagnostics) -> str:
    report = evaluate_records(iter(records), config, probe_context=probe, diagnostics=diagnostics)
    return json.dumps(report_document(report, config, diagnostics), indent=2)


def oracle(records, config, probe, diagnostics) -> str:
    return json.dumps(reference.evaluate_records(records, config, probe, diagnostics), indent=2)


def run(evaluate, records, config, probe) -> tuple:
    """The report bytes, or the error's type and text, with the notes and counts
    as the call left them; only evaluate_records' two documented errors may end it."""
    diagnostics = StreamDiagnostics()
    result = reference.outcome(evaluate, records, config, probe, diagnostics)
    assert result[0] != "raises" or result[1] in ("EvaluationError", "TypeError"), result
    return result, diagnostics.evaluation_notes, diagnostics.record_counts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mixed_streams())
def test_one_pass_evaluator_matches_the_list_based_one(inputs):
    records, config, probe = inputs
    assert run(engine, records, config, probe) == run(oracle, records, config, probe)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mixed_streams(), st.floats(0.0, 4.0), units)
def test_every_metric_result_holds_unit_floats_and_its_threshold_verdict(inputs, lambda_, tau_u):
    """MetricResult checks nothing: each scorer's own clamp keeps its score and
    confidence floats in [0, 1], also where a cascade penalty above the default
    takes a pipeline's raw score below 0."""
    records, config, probe = inputs
    config = dataclasses.replace(config, lambda_=lambda_, tau_u=tau_u)
    try:
        report = evaluate_records(iter(records), config, probe_context=probe)
    except (EvaluationError, TypeError):  # nothing evaluable, or the stray object
        return
    for dimension, result in report.per_dimension.items():
        assert type(result.score) is float and 0.0 <= result.score <= 1.0
        assert type(result.confidence) is float and 0.0 <= result.confidence <= 1.0
        assert result.passed is (result.score >= config.threshold(dimension))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mixed_streams())
def test_tool_call_counts_and_partial_rate_are_the_oracles_count(inputs):
    """TOOL's call_counts equal the oracle's own count of the calls in each
    state, key order included, and its prr is their PARTIAL count over the
    number of calls, bit for bit."""
    records, config, probe = inputs
    try:
        report = evaluate_records(iter(records), config, probe_context=probe)
    except (EvaluationError, TypeError):  # nothing evaluable, or the stray object
        return
    calls = [record for record in records if isinstance(record, ToolCallRecord)]
    tool = report.per_dimension.get(Dimension.TOOL)
    assert (tool is None) == (not calls)
    if calls:
        counts = reference.state_counts(calls)
        assert list(tool.metadata["call_counts"].items()) == list(counts.items())
        assert tool.metadata["prr"].hex() == (counts["PARTIAL"] / len(calls)).hex()


# --- metamorphic relations ----------------------------------------------------
# No relation reorders attribution cases: the first of the worst cases gives
# EXPLANATION's metadata and its mean adds left to right. On the benchmark's
# semantic trace (tracegen seed 1, 2,416 attribution lines), shuffling those
# lines in place with random.Random(1) kept the score and overall_score, but
# the first worst case (ACS 0.0) named two features before and three after.


def interleave(records: list, rng) -> list:
    """The records in a random order that keeps each type's own order."""
    queues: dict[type, deque] = {}
    for record in records:
        queues.setdefault(type(record), deque()).append(record)
    kinds = [type(record) for record in records]
    rng.shuffle(kinds)
    return [queues[kind].popleft() for kind in kinds]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mixed_streams(), st.randoms(use_true_random=False))
def test_any_interleaving_that_keeps_each_types_order_gives_the_same_report(inputs, rng):
    records, config, probe = inputs
    assert run(engine, interleave(records, rng), config, probe) == \
        run(engine, records, config, probe)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mixed_streams(), st.randoms(use_true_random=False))
def test_consistency_ignores_pair_order_and_sides(inputs, rng):
    records, config, probe = inputs
    swapped = [RequestPair(r.text_b, r.text_a, r.decision_b, r.decision_a)
               for r in records if type(r) is RequestPair]
    rng.shuffle(swapped)
    pairs = iter(swapped)
    changed = [next(pairs) if type(r) is RequestPair else r for r in records]
    assert run(engine, changed, config, probe) == run(engine, records, config, probe)


BAD_LINES = ("{bad", "[]", '{"type":"mystery"}', '{"type":"output","category":""}',
             '{"type":"step","step_index":0,"step_name":"x","confidence":0.5}')
BLANK_LINES = ("", " ", "\t", "\r")


def stream_report(lines, config, probe) -> str:
    report, diagnostics = evaluate_stream(lines, config, probe)
    return json.dumps(report_document(report, config, diagnostics), indent=2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mixed_streams(), st.lists(st.sampled_from(BAD_LINES), max_size=4),
       st.randoms(use_true_random=False))
def test_blank_lines_and_unknown_fields_move_only_line_numbers(inputs, bad_lines, rng):
    records, config, probe = inputs
    lines = [json.dumps(r) if type(r) is dict else serialize_trace_record(r) for r in records]
    for line in bad_lines:
        lines.insert(rng.randint(0, len(lines)), line)
    before = reference.outcome(stream_report, lines, config, probe)
    assert before[0] != "raises" or before[1] == "EvaluationError", before
    padded: list[str] = []
    moved_to = {}
    for number, line in enumerate(lines, 1):
        padded += rng.choices(BLANK_LINES, k=rng.randint(0, 2))
        moved_to[str(number)] = str(len(padded) + 1)
        padded.append('{"reasoning":"why",' + line[1:] if line.startswith('{"type"') else line)
    renumbered = re.sub(r'("line": |line )(\d+)', lambda m: m[1] + moved_to[m[2]], before[-1])
    assert reference.outcome(stream_report, padded, config, probe) == (*before[:-1], renumbered)


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
            assert run(engine, records, config, None) == run(oracle, records, config, None)

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
