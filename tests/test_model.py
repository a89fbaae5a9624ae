"""Trace record parsing, validation, and round-trip guarantees."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

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


def test_library_construction_normalises_values():
    record = ToolCallRecord("svc", ToolCallState.PARTIAL, 1, 0)
    assert record.state is ToolCallState.PARTIAL
    assert type(record.latency_ms) is float and record.latency_ms == 1.0
    assert ToolCallRecord("svc", "FAILED", 2.5, 0).state is ToolCallState.FAILED
    assert type(StepResult(1, "x", 1).confidence) is float
    assert type(OutputEvent("c", "s", 0, 0).quality_signal) is float
    case = AttributionCase(["a", "b"], [2, 1], 0)
    assert type(case.feature_names) is tuple and case.feature_names == ("a", "b")
    assert type(case.claimed_weights) is tuple and case.claimed_weights == (2.0, 1.0)
    assert all(type(w) is float for w in case.claimed_weights)
    assert type(case.decision_value) is float


# --- differential test of the validators' fast paths --------------------------
#
# The reference below is the record validation as it was before the records
# got their exact-type fast paths: the general checks only, on frozen
# dataclasses. parse_trace_record must give the same record, or the same
# error type and text, for every line.


def _ref_require_unit(name, value):
    value = _ref_require_real(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value


def _ref_require_real(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return number


def _ref_require_tick(value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError("timestamp must be an integer tick")
    if abs(value) > 2**1022:
        raise ValidationError("timestamp must be an integer tick in [-2**1022, 2**1022]")


@dataclass(frozen=True)
class _RefStep:
    step_index: int
    step_name: str
    confidence: float

    def __post_init__(self):
        if isinstance(self.step_index, bool) or not isinstance(self.step_index, int):
            raise ValidationError("step_index must be an integer")
        if self.step_index < 1:
            raise ValidationError(f"step_index must be >= 1, got {self.step_index}")
        if not isinstance(self.step_name, str):
            raise ValidationError("step_name must be a string")
        object.__setattr__(self, "confidence", _ref_require_unit("confidence", self.confidence))


@dataclass(frozen=True)
class _RefToolCall:
    tool_name: str
    state: ToolCallState
    latency_ms: float
    timestamp: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "state", ToolCallState(self.state))
        except ValueError:
            raise ValidationError(
                f"state must be one of {[s.value for s in ToolCallState]}, got {self.state!r}"
            ) from None
        if not isinstance(self.tool_name, str):
            raise ValidationError("tool_name must be a string")
        latency = _ref_require_real("latency_ms", self.latency_ms)
        if latency < 0:
            raise ValidationError(f"latency_ms must be >= 0, got {latency}")
        object.__setattr__(self, "latency_ms", latency)
        _ref_require_tick(self.timestamp)


@dataclass(frozen=True)
class _RefOutput:
    category: str
    session_id: str
    timestamp: int
    quality_signal: float | None = None

    def __post_init__(self):
        if not isinstance(self.category, str) or not self.category:
            raise ValidationError("category must be a non-empty string")
        if not isinstance(self.session_id, str):
            raise ValidationError("session_id must be a string")
        _ref_require_tick(self.timestamp)
        if self.quality_signal is not None:
            object.__setattr__(
                self, "quality_signal", _ref_require_unit("quality_signal", self.quality_signal)
            )


@dataclass(frozen=True)
class _RefAttribution:
    feature_names: tuple
    claimed_weights: tuple
    decision_value: float

    def __post_init__(self):
        if not isinstance(self.feature_names, (list, tuple)) or \
                not isinstance(self.claimed_weights, (list, tuple)):
            raise ValidationError("feature_names and claimed_weights must be lists")
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        weights = tuple(_ref_require_real("claimed_weights", w) for w in self.claimed_weights)
        object.__setattr__(self, "claimed_weights", weights)
        if len(self.feature_names) != len(weights):
            raise ValidationError("feature_names and claimed_weights must have equal length")
        if len(weights) < 2:
            raise ValidationError("an attribution case needs at least 2 features")
        if any(not isinstance(f, str) or not f for f in self.feature_names):
            raise ValidationError("feature_names must be non-empty strings")
        if any(w < 0 for w in weights):
            raise ValidationError("claimed_weights must be >= 0")
        if any(a < b for a, b in zip(weights, weights[1:])):
            raise ValidationError("claimed_weights must be non-increasing")
        object.__setattr__(
            self, "decision_value", _ref_require_real("decision_value", self.decision_value)
        )


@dataclass(frozen=True)
class _RefPair:
    text_a: str
    text_b: str
    decision_a: str
    decision_b: str

    def __post_init__(self):
        for name in ("text_a", "text_b", "decision_a", "decision_b"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ValidationError(f"{name} must be a non-empty string")


_REFERENCE = {
    "step": _RefStep,
    "tool_call": _RefToolCall,
    "output": _RefOutput,
    "attribution": _RefAttribution,
    "request_pair": _RefPair,
}


def _normalised(value):
    """A value with its exact type; floats by float.hex, so -0.0 keeps its sign."""
    if type(value) is float:
        return "float", value.hex()
    if type(value) in (tuple, list):
        return type(value).__name__, tuple(_normalised(v) for v in value)
    return type(value).__name__, value


def _outcome(build, line):
    """The fields of the record ``build`` makes of ``line``, or its error's type and text."""
    try:
        record = build(line)
    except Exception as exc:  # any exception, so a wrong one is a mismatch, not a crash
        return type(exc).__name__, str(exc)
    return tuple((f.name, _normalised(getattr(record, f.name))) for f in fields(record))


def _reference_record(line):
    payload = json.loads(line)
    try:
        return _REFERENCE[payload.pop("type")](**payload)
    except ValidationError as exc:
        raise ValidationError(f"line 9: {exc}") from None


def _assert_same_outcome(line):
    expected = _outcome(_reference_record, line)
    assert _outcome(lambda text: parse_trace_record(text, 9), line) == expected, line


# JSON fragments for each kind of field. NaN and infinities appear both in
# Python's JSON spelling and as 1e999, which json.loads reads as inf.
NUMBERS = (
    "-0.0", "0.0", "5e-324", "1e-300", "0.5", "1.0", repr(math.nextafter(1.0, 2.0)),
    "1.7976931348623157e308", "-1.7976931348623157e308", "-5e-324", "-0.5",
    "NaN", "Infinity", "-Infinity", "1e999", "-1e999",
    "0", "1", "2", "-1", "true", "false", "null", '"0.5"', '"x"', "[]", "{}",
    "1" * 400, "-" + "9" * 400,
)
TICKS = (
    "0", "1", "-1", "7", str(2**1022), str(-2**1022), str(2**1022 + 1), str(-(2**1022 + 1)),
    str(2**1023), "3.0", "0.0", "-0.0", "NaN", "1e999", "true", "false", "null", '"1"',
    "[]", "{}", "1" * 400, "-" + "9" * 400,
)
STRINGS = ('"svc"', '"x"', '""', '"é ☃"', "1", "0.5", "true", "null", "[]", "{}")
STATE_VALUES = (
    '"SUCCESS"', '"PARTIAL"', '"FAILED"', '"success"', '"flaky"', '""',
    "1", "0.5", "true", "null", "[]", "{}", '["SUCCESS"]',
)
NAME_LISTS = ('["a","b"]', '["a","b","c"]', '["a",""]', '["a",1]', '["a"]', "[]", '"ab"', "null", "{}")
WEIGHT_LISTS = ("[0.6,0.4]", "[1,0]", "[0.5,0.5,0.0]", "[0.4,0.6]", "[0.6]", "[0.6,-0.0]",
                "[0.6,NaN]", "[1e999,1]", "[true,false]", "[0.6,null]", "null", '"ab"', "{}")

FIELD_VALUES = {
    "step_index": TICKS,
    "step_name": STRINGS,
    "confidence": NUMBERS,
    "tool_name": STRINGS,
    "state": STATE_VALUES,
    "latency_ms": NUMBERS,
    "timestamp": TICKS,
    "category": STRINGS,
    "session_id": STRINGS,
    "quality_signal": NUMBERS,
    "feature_names": NAME_LISTS,
    "claimed_weights": WEIGHT_LISTS,
    "decision_value": NUMBERS,
    "text_a": STRINGS,
    "text_b": STRINGS,
    "decision_a": STRINGS,
    "decision_b": STRINGS,
}
VALID_LINES = {
    "step": {"step_index": "2", "step_name": '"plan"', "confidence": "0.25"},
    "tool_call": {"tool_name": '"svc"', "state": '"SUCCESS"', "latency_ms": "12.5", "timestamp": "9"},
    "output": {"category": '"c"', "session_id": '"s"', "timestamp": "9", "quality_signal": "0.75"},
    "attribution": {"feature_names": '["a","b"]', "claimed_weights": "[0.6,0.4]",
                    "decision_value": "0.5"},
    "request_pair": {"text_a": '"a"', "text_b": '"b"', "decision_a": '"allow"',
                     "decision_b": '"deny"'},
}


def _line(record_type, values):
    """The JSON line of ``record_type`` with these field fragments; None leaves a field out."""
    fragments = [f',"{name}":{value}' for name, value in values.items() if value is not None]
    return f'{{"type":"{record_type}"{"".join(fragments)}}}'


def test_fast_paths_agree_with_the_reference_on_each_special_value():
    for record_type, valid in VALID_LINES.items():
        _assert_same_outcome(_line(record_type, valid))
        for name in valid:
            for value in FIELD_VALUES[name]:
                _assert_same_outcome(_line(record_type, {**valid, name: value}))
        if record_type == "output":
            _assert_same_outcome(_line(record_type, {**valid, "quality_signal": None}))


def _fragments(name):
    special = st.sampled_from(FIELD_VALUES[name])
    if FIELD_VALUES[name] is NUMBERS:
        return st.one_of(special, st.floats().map(json.dumps), st.integers().map(str))
    if FIELD_VALUES[name] is TICKS:
        return st.one_of(special, st.integers(-2**1023, 2**1023).map(str),
                         st.integers(-(2**1022) - 2, -(2**1022) + 2).map(str),
                         st.integers(2**1022 - 2, 2**1022 + 2).map(str))
    if name == "claimed_weights":
        return st.one_of(
            special,
            st.lists(_fragments("decision_value"), max_size=4).map(lambda v: f"[{','.join(v)}]"),
            st.lists(st.floats(allow_nan=False), min_size=2, max_size=4).map(
                lambda v: json.dumps(sorted(v, reverse=True))),
        )
    return special


@st.composite
def trace_lines(draw):
    record_type = draw(st.sampled_from(sorted(VALID_LINES)))
    # Each field keeps its valid value about half the time, so later checks are reached.
    values = {name: draw(st.one_of(st.just(valid), _fragments(name)))
              for name, valid in VALID_LINES[record_type].items()}
    if record_type == "output" and draw(st.booleans()):
        values["quality_signal"] = None
    return _line(record_type, values)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(trace_lines())
def test_fast_paths_agree_with_the_reference(line):
    _assert_same_outcome(line)
