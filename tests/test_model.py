"""Trace record parsing, validation, and round-trip guarantees."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalgate.model import (
    AttributionCase,
    EvalConfig,
    MetricResult,
    OutputEvent,
    RequestPair,
    StepResult,
    ToolCallRecord,
    ToolCallState,
    TraceParseError,
    ValidationError,
    parse_trace_record,
    serialize_trace_record,
)


def test_parse_step_record():
    record = parse_trace_record('{"type":"step","step_index":1,"step_name":"resolve","confidence":0.31}')
    assert record == StepResult(step_index=1, step_name="resolve", confidence=0.31)


def test_parse_tool_call_record():
    record = parse_trace_record(
        '{"type":"tool_call","tool_name":"svc","state":"PARTIAL","latency_ms":120.5,"timestamp":9}'
    )
    assert isinstance(record, ToolCallRecord)
    assert record.state is ToolCallState.PARTIAL


def test_parse_rejects_out_of_range_confidence():
    line = '{"type":"step","step_index":1,"step_name":"x","confidence":1.7}'
    with pytest.raises(ValidationError, match="confidence"):
        parse_trace_record(line, line_number=3)


def test_parse_rejects_unknown_type():
    for line in ('{"type":"mystery","x":1}', '{"type":[]}', '{"type":{}}'):
        with pytest.raises(TraceParseError, match="unknown record type"):
            parse_trace_record(line, line_number=7)


STATES = "['SUCCESS', 'PARTIAL', 'FAILED']"


@pytest.mark.parametrize(
    "line, error, message",
    [
        ("{not json", TraceParseError,
         "line 9: invalid JSON: Expecting property name enclosed in double quotes"),
        ("[1, 2]", TraceParseError, "line 9: record must be a JSON object"),
        ('{"type":"mystery","x":1}', TraceParseError, "line 9: unknown record type: 'mystery'"),
        ('{"type":[]}', TraceParseError, "line 9: unknown record type: []"),
        ('{"type":"step","step_index":1,"confidence":0.5}', TraceParseError,
         "line 9: step record missing field 'step_name'"),
        ('{"type":"tool_call","tool_name":"svc","state":"PARTIAL","latency_ms":1}', TraceParseError,
         "line 9: tool_call record missing field 'timestamp'"),
        ('{"type":"step","step_index":1,"step_name":"x","confidence":1.7}', ValidationError,
         "line 9: confidence must be in [0, 1], got 1.7"),
        ('{"type":"output","category":"c","session_id":"s","timestamp":1,"quality_signal":2}',
         ValidationError, "line 9: quality_signal must be in [0, 1], got 2.0"),
        ('{"type":"tool_call","tool_name":"svc","state":"flaky","latency_ms":1,"timestamp":0}',
         ValidationError, f"line 9: state must be one of {STATES}, got 'flaky'"),
        ('{"type":"attribution","feature_names":"ab","claimed_weights":[0.6,0.4],'
         '"decision_value":0.5}', ValidationError,
         "line 9: feature_names and claimed_weights must be lists"),
        ('{"type":"tool_call","tool_name":7,"state":"flaky","latency_ms":1,"timestamp":0}',
         ValidationError, f"line 9: state must be one of {STATES}, got 'flaky'"),
        pytest.param("[" * 100_000, TraceParseError, "line 9: invalid JSON: nested too deeply",
                     id="deep-nesting"),
        pytest.param('{"type":"step","step_index":' + "1" * 5000 + "}", TraceParseError,
                     "line 9: invalid JSON: integer has too many digits", id="long-integer"),
    ],
)
def test_parse_error_messages(line, error, message):
    with pytest.raises(error) as excinfo:
        parse_trace_record(line, line_number=9)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_parse_rejects_missing_field_naming_it():
    with pytest.raises(TraceParseError, match="step_name") as excinfo:
        parse_trace_record('{"type":"step","step_index":1,"confidence":0.5}', line_number=12)
    assert "line 12" in str(excinfo.value)


def test_parse_rejects_malformed_json_with_line_number():
    with pytest.raises(TraceParseError, match="line 4"):
        parse_trace_record("{not json", line_number=4)


def test_parse_rejects_bad_tool_state():
    line = '{"type":"tool_call","tool_name":"svc","state":"flaky","latency_ms":1,"timestamp":0}'
    with pytest.raises(ValidationError, match="state"):
        parse_trace_record(line)


def test_parse_ignores_unconsumed_fields():
    line = (
        '{"type":"step","step_index":2,"step_name":"x","confidence":0.5,'
        '"reasoning":"because","context":"stuff"}'
    )
    assert parse_trace_record(line) == StepResult(2, "x", 0.5)


def test_attribution_invariants():
    with pytest.raises(ValidationError, match="non-increasing"):
        AttributionCase(("a", "b"), (0.1, 0.9), 0.5)
    with pytest.raises(ValidationError, match="at least 2"):
        AttributionCase(("a",), (0.9,), 0.5)
    with pytest.raises(ValidationError, match="equal length"):
        AttributionCase(("a", "b"), (0.9, 0.5, 0.1), 0.5)
    with pytest.raises(ValidationError, match=">= 0"):
        AttributionCase(("a", "b"), (0.9, -0.1), 0.5)


def test_request_pair_requires_non_empty_fields():
    with pytest.raises(ValidationError):
        RequestPair("", "b", "allow", "allow")
    with pytest.raises(ValidationError):
        RequestPair("a", "b", "allow", "")


def test_output_event_requires_category():
    with pytest.raises(ValidationError):
        OutputEvent(category="", session_id="s", timestamp=0)
    event = OutputEvent(category="c", session_id="s", timestamp=0, quality_signal=0.5)
    assert event.quality_signal == 0.5
    with pytest.raises(ValidationError):
        OutputEvent(category="c", session_id="s", timestamp=0, quality_signal=1.2)


def test_tool_call_rejects_negative_latency():
    with pytest.raises(ValidationError, match="latency_ms"):
        ToolCallRecord("svc", ToolCallState.SUCCESS, -1.0, 0)


def test_numbers_too_large_for_a_float_are_validation_errors():
    huge = 10**400
    with pytest.raises(ValidationError, match="confidence must be finite"):
        StepResult(1, "x", huge)
    with pytest.raises(ValidationError, match="tau_u must be finite"):
        EvalConfig(tau_u=huge)
    with pytest.raises(ValidationError, match=r"aggregate_weights\[tool\] must be finite"):
        EvalConfig(aggregate_weights={"tool": huge})


def test_ticks_are_bounded_so_differences_convert_to_float():
    bound = 2**1022
    for tick in (-bound, 9 * 10**21, bound):
        assert ToolCallRecord("svc", "SUCCESS", 1.0, tick).timestamp == tick
        assert OutputEvent("c", "s", tick).timestamp == tick
    assert float(bound - -bound) == 2.0**1023
    for tick in (bound + 1, -bound - 1, 10**400):
        with pytest.raises(ValidationError, match="timestamp must be an integer tick in"):
            ToolCallRecord("svc", "SUCCESS", 1.0, tick)
        with pytest.raises(ValidationError, match="timestamp must be an integer tick in"):
            OutputEvent("c", "s", tick)


def test_step_index_must_be_positive_integer():
    with pytest.raises(ValidationError):
        StepResult(0, "x", 0.5)
    with pytest.raises(ValidationError):
        StepResult(True, "x", 0.5)


def test_metric_result_clamps_nothing_silently():
    with pytest.raises(ValidationError):
        MetricResult(score=1.5, confidence=1.0, latency_ms=0.0, passed=True)


def test_config_simplex_constraint():
    with pytest.raises(ValidationError, match="alpha"):
        EvalConfig(alpha=0.6, beta=0.3, gamma=0.3)
    cfg = EvalConfig(alpha=0.4, beta=0.4, gamma=0.2)
    assert cfg.alpha == 0.4


@pytest.mark.parametrize(
    "kwargs",
    [{"k_top": True}, {"acc_delta_cumulative": "yes"}, {"dimension_thresholds": []}],
)
def test_config_rejects_wrong_types(kwargs):
    with pytest.raises(ValidationError):
        EvalConfig(**kwargs)


def test_config_rejects_unknown_dimension_keys():
    with pytest.raises(ValidationError):
        EvalConfig(dimension_thresholds={"sideways": 0.5})
    with pytest.raises(ValidationError):
        EvalConfig(aggregate_weights={"cascade": -1.0})


# --- round-trip property -----------------------------------------------------

label = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=20
)
unit = st.floats(0, 1, allow_nan=False)
tick = st.integers(0, 10**9)

step_records = st.builds(
    StepResult, step_index=st.integers(1, 500), step_name=label, confidence=unit
)
tool_records = st.builds(
    ToolCallRecord,
    tool_name=label,
    state=st.sampled_from(ToolCallState),
    latency_ms=st.floats(0, 1e6, allow_nan=False),
    timestamp=tick,
)
output_records = st.builds(
    OutputEvent,
    category=label,
    session_id=label,
    timestamp=tick,
    quality_signal=st.one_of(st.none(), unit),
)
attribution_records = st.integers(2, 6).flatmap(
    lambda k: st.builds(
        lambda names, weights, decision: AttributionCase(
            tuple(f"f{i}_{n}" for i, n in enumerate(names)),
            tuple(sorted(weights, reverse=True)),
            decision,
        ),
        names=st.lists(label, min_size=k, max_size=k),
        weights=st.lists(st.floats(0, 10, allow_nan=False), min_size=k, max_size=k),
        decision=st.floats(-100, 100, allow_nan=False),
    )
)
pair_records = st.builds(
    RequestPair, text_a=label, text_b=label, decision_a=label, decision_b=label
)

any_record = st.one_of(
    step_records, tool_records, output_records, attribution_records, pair_records
)


@settings(max_examples=500, deadline=None)
@given(any_record)
def test_serialize_parse_round_trip(record):
    line = serialize_trace_record(record)
    assert parse_trace_record(line) == record
    # a second trip stays stable byte for byte
    assert serialize_trace_record(parse_trace_record(line)) == line


@settings(max_examples=200, deadline=None)
@given(any_record)
def test_serialized_form_is_single_json_line(record):
    line = serialize_trace_record(record)
    assert "\n" not in line
    assert json.loads(line)["type"] in {"step", "tool_call", "output", "attribution", "request_pair"}
