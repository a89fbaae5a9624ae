"""Trace record parsing, validation, and round-trip guarantees."""

from __future__ import annotations

import inspect
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from evalgate.evaluator import evaluate_stream
from evalgate.model import (
    DIMENSION_KEYS,
    RECORD_TYPES,
    AttributionCase,
    EvalConfig,
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
        ('{"type":"attribution","feature_names":["transaction_velocity","transaction_velocity",'
         '"device_age_days"],"claimed_weights":[0.9,0.5,0.1],"decision_value":0.5}',
         ValidationError, "line 9: feature_names must be distinct"),
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


# Each kind of rejection, pinned from the release before TraceParseError and
# ValidationError shared one constructor: the error's class, its text without and
# with a line number, and the wire type it names.
REJECTIONS = [
    ("not json", TraceParseError, "invalid JSON: Expecting value", None),
    ("[1, 2]", TraceParseError, "record must be a JSON object", None),
    ('{"type":"span"}', TraceParseError, "unknown record type: 'span'", None),
    ('{"type":["tool_call"]}', TraceParseError, "unknown record type: ['tool_call']", None),
    ('{"type":"tool_call","tool_name":"t","state":"SUCCESS"}', TraceParseError,
     "tool_call record missing field 'latency_ms'", "tool_call"),
    ('{"type":"step","step_index":0,"step_name":"x","confidence":0.5}', ValidationError,
     "step_index must be >= 1, got 0", "step"),
]


@pytest.mark.parametrize("line, error, message, record_type", REJECTIONS)
@pytest.mark.parametrize("line_number, prefix", [(None, ""), (7, "line 7: ")])
def test_each_rejection_keeps_its_class_text_and_wire_type(
    line, error, message, record_type, line_number, prefix
):
    with pytest.raises(ValueError) as excinfo:
        parse_trace_record(line, line_number)
    assert type(excinfo.value) is error
    assert (str(excinfo.value), excinfo.value.record_type) == (prefix + message, record_type)


def test_stream_rejections_keep_their_text_and_counts():
    healthy = [serialize_trace_record(StepResult(i, f"s{i}", 0.9)).encode() for i in range(1, 6)]
    _, diagnostics = evaluate_stream(healthy + [
        b'{"type":"step","step_index":1,"step_name":"\xff\xfe","confidence":0.5}',
        b"\xef\xbb\xbf\xc3",
        b'{"type":"step","step_index":0,"step_name":"x","confidence":0.5}',
        b'{"type":"tool_call","tool_name":"t","state":"SUCCESS"}',
    ])
    assert diagnostics.parse_errors == [
        {"line": 6, "message": "line 6: invalid UTF-8: invalid start byte"},
        {"line": 7, "message": "line 7: invalid UTF-8: unexpected end of data"},
        {"line": 8, "message": "line 8: step_index must be >= 1, got 0"},
        {"line": 9, "message": "line 9: tool_call record missing field 'latency_ms'"},
    ]
    assert diagnostics.rejected_counts == {"step": 1, "tool_call": 1}
    assert list(diagnostics.unscored) == ["tool_call"]


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


def test_config_rejects_aggregate_weights_whose_sum_overflows():
    with pytest.raises(ValidationError, match="aggregate_weights must have a finite sum"):
        EvalConfig(aggregate_weights={"cascade": 1.7e308, "distribution": 1.7e308})
    with pytest.raises(ValidationError, match="aggregate_weights must sum to a positive value"):
        EvalConfig(aggregate_weights=dict.fromkeys(DIMENSION_KEYS, 0.0))
    assert EvalConfig(aggregate_weights={"cascade": 1.7e308}).aggregate_weights["cascade"] == 1.7e308


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
    # The same values by keyword, in reverse order, give equal records.
    for built in (record, case, StepResult(1, "x", 1), OutputEvent("c", "s", 0, 0),
                  OutputEvent("c", "s", 0), RequestPair("a", "b", "x", "y")):
        values = [(name, getattr(built, name)) for name in built.__slots__]
        by_keyword = type(built)(**dict(reversed(values)))
        assert reference.exact(by_keyword) == reference.exact(built)
    assert reference.exact(ToolCallRecord(timestamp=0, latency_ms=1, state="PARTIAL",
                                          tool_name="svc")) == reference.exact(record)
    assert reference.exact(AttributionCase(decision_value=0, claimed_weights=[2, 1],
                                           feature_names=["a", "b"])) == reference.exact(case)


# Each wire type's required and optional fields, in order; every optional
# field defaults to None.
WIRE_SCHEMA = {
    "step": (("step_index", "step_name", "confidence"), ()),
    "tool_call": (("tool_name", "state", "latency_ms", "timestamp"), ()),
    "output": (("category", "session_id", "timestamp"), ("quality_signal",)),
    "attribution": (("feature_names", "claimed_weights", "decision_value"), ()),
    "request_pair": (("text_a", "text_b", "decision_a", "decision_b"), ()),
}


def test_each_record_takes_its_wire_fields_in_order_with_none_defaults():
    assert list(RECORD_TYPES) == list(WIRE_SCHEMA)
    for name, cls in RECORD_TYPES.items():
        required, optional = WIRE_SCHEMA[name]
        parameters = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in parameters] == [*required, *optional]
        assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
        assert [p.default for p in parameters] == \
            [inspect.Parameter.empty] * len(required) + [None] * len(optional)
        assert cls.__slots__ == cls.__match_args__ == (*required, *optional)


# One record of each type with its repr and its fields by position, as a
# dataclass with the same fields shows them.
RECORD_PINS = [
    (StepResult(1, "x", 1), "StepResult(step_index=1, step_name='x', confidence=1.0)",
     (1, "x", 1.0)),
    (ToolCallRecord("svc", "PARTIAL", 1, 0),
     "ToolCallRecord(tool_name='svc', state=<ToolCallState.PARTIAL: 'PARTIAL'>, "
     "latency_ms=1.0, timestamp=0)",
     ("svc", ToolCallState.PARTIAL, 1.0, 0)),
    (OutputEvent("c", "s", 0),
     "OutputEvent(category='c', session_id='s', timestamp=0, quality_signal=None)",
     ("c", "s", 0, None)),
    (AttributionCase(["a", "b"], [2, 1], 0),
     "AttributionCase(feature_names=('a', 'b'), claimed_weights=(2.0, 1.0), decision_value=0.0)",
     (("a", "b"), (2.0, 1.0), 0.0)),
    (RequestPair("a", "b", "x", "y"),
     "RequestPair(text_a='a', text_b='b', decision_a='x', decision_b='y')",
     ("a", "b", "x", "y")),
]


def by_position(record):
    match record:
        case StepResult(a, b, c) | AttributionCase(a, b, c):
            return a, b, c
        case ToolCallRecord(a, b, c, d) | OutputEvent(a, b, c, d) | RequestPair(a, b, c, d):
            return a, b, c, d


@pytest.mark.parametrize("record, shown, values", RECORD_PINS,
                         ids=[type(pin[0]).__name__ for pin in RECORD_PINS])
def test_each_record_keeps_its_repr_equality_hashing_and_match(record, shown, values):
    cls = type(record)
    assert repr(record) == shown
    assert by_position(record) == values
    same = cls(*values)
    assert same is not record and same == record and not same != record
    for index, value in enumerate(values):  # one field changed after construction
        changed = cls(*values)
        setattr(changed, cls.__slots__[index], "other" if value != "other" else "else")
        assert changed != record and not changed == record
    assert record != values and record.__eq__(values) is NotImplemented
    assert all(record != other for other, _, _ in RECORD_PINS if type(other) is not cls)
    with pytest.raises(TypeError, match="unhashable type"):
        hash(record)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


# --- differential tests of the validators' and the scanner's fast paths --------
# reference.parse reads every line with json.loads and has the general checks
# only. parse_trace_record must give a record of the same type with the same
# fields, or the same error type and text, for every line.


def _assert_same_outcome(line):
    assert reference.outcome(parse_trace_record, line, 9) == \
        reference.outcome(reference.parse, line, 9), line


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
    "1", "0.5", "true", "null", "[]", "{}", '["SUCCESS"]', '"' + "x" * 200 + '"',
)
NAME_LISTS = ('["a","b"]', '["a","b","c"]', '["a","b","c","d"]', '["a","a"]', '["a","b","a"]',
              '["b","a","b"]', '["a",""]', '["a","b",""]', '["a",1]', '["a"]', "[]", '"ab"', "null",
              "{}")
WEIGHT_LISTS = ("[0.6,0.4]", "[1,0]", "[0.5,0.5,0.0]", "[0.4,0.6]", "[-0.1,0.6]", "[0.9,0.1,0.5]",
                "[0.6]", "[0.6,-0.0]", "[0.5,-0.0,0.0]", "[0.9,0.5,0.5,0.1]",
                "[1.7976931348623157e308,1]", "[0.6,NaN]", "[0.6,NaN,0.1]", "[1e999,1]",
                "[true,false]", "[0.6,null]", "null", '"ab"', "{}")

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
    # every name list with every weight list, so lists of 3 and 4 reach each check
    valid = VALID_LINES["attribution"]
    for names, weights in itertools.product(NAME_LISTS, WEIGHT_LISTS):
        _assert_same_outcome(_line("attribution", {**valid, "feature_names": names,
                                                   "claimed_weights": weights}))


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
    if name == "feature_names":
        return st.one_of(special, st.lists(st.sampled_from(("a", "b", "c", "", "é")),
                                           min_size=2, max_size=4).map(json.dumps))
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


class Name(str):
    """A str subclass, which only the general checks accept."""


class Weight(float):
    """A float subclass, which only the general checks accept."""


def test_library_built_cases_and_pairs_agree_with_the_reference():
    names = (("a", "b"), ["a", "b"], ("a", "b", "c"), ["b", "a", "b"], ("a", ""), [Name("a"), "b"],
             ("a", 1), "ab")
    weights = ((0.6, 0.4), [0.6, 0.4], (0.5, 0.5, -0.0), [0.9, 0.5, 0.1], [Weight(0.6), 0.4],
               [1, 0], (True, False), [0.4, 0.6], [math.inf, 1.0], [0.6, math.nan], [0.6, -0.5])
    decisions = (0.5, -0.0, 1, True, math.nan, math.inf, Weight(0.5), "0.5")
    for case in itertools.product(names, weights, decisions):
        assert reference.outcome(AttributionCase, *case) == \
            reference.outcome(reference.attribution, *case), case
    texts = ("a", "", Name("a"), Name(""), 1, None)
    for pair in itertools.product(texts, ("b",), texts, ("deny", "")):
        assert reference.outcome(RequestPair, *pair) == \
            reference.outcome(reference.request_pair, *pair), pair


# JSON whitespace is the first four; str.strip() removes all eight.
SPACES = (" ", "\t", "\r", "\n", "\x0b", "\x0c", "\u00a0", "\u2028")
VALUE_MUTATIONS = (
    "NaN", "Infinity", "-Infinity", "-0.0", "1e999", "1" * 4301,
    "[" * 100_000 + "]" * 100_000, '"\\ud800"', '"x\\udc00"', '"' + "\u00e9" * 150 + '"',
)
TRAILERS = ("x", "}", ",", "]", " 1", "{}", '{"type":"step"}')
NON_OBJECTS = ("[]", "1", '"s"', "null")
LINE_MUTATIONS = ("space", "bom", "trailer", "second", "truncate", "non_object", "bytes")
spaces = st.text(st.sampled_from(SPACES), min_size=1, max_size=2)
value_mutations = st.sampled_from(VALUE_MUTATIONS)
line_mutations = st.sets(st.sampled_from(LINE_MUTATIONS), max_size=3)


@st.composite
def mutated_lines(draw):
    payload = json.loads(serialize_trace_record(draw(any_record)))
    members = [(json.dumps(k), json.dumps(v, ensure_ascii=False)) for k, v in payload.items()]
    for _ in range(draw(st.integers(0, 2))):
        index = draw(st.integers(0, len(members) - 1))
        value = draw(value_mutations)
        if draw(st.booleans()):  # a duplicate key; the last one wins
            members.append((members[index][0], value))
        else:
            members[index] = (members[index][0], value)
    if draw(st.booleans()):
        members.append(('"\\ud800"', "1"))
    line = "{" + ",".join(f"{key}:{value}" for key, value in members) + "}"
    kinds = draw(line_mutations)
    if "non_object" in kinds:
        line = draw(st.sampled_from(NON_OBJECTS))
    if "truncate" in kinds:
        line = line[:draw(st.integers(0, len(line) - 1))]
    if "trailer" in kinds:
        line += draw(st.sampled_from(TRAILERS))
    if "second" in kinds:
        line += line
    if "space" in kinds:
        line = draw(spaces) + line + draw(spaces)
    if "bom" in kinds:
        line = "\ufeff" + line
    if "bytes" in kinds:
        return line.encode("utf-8", "surrogatepass")
    return line


@settings(max_examples=600, deadline=None, derandomize=True)
@given(mutated_lines())
def test_scanner_fast_path_agrees_with_json_loads_first(line):
    _assert_same_outcome(line)
