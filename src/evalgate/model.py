"""Core domain types: trace records, metric results, reports, configuration.

Trace records arrive as a line-delimited JSON stream, one record per line,
discriminated by a ``type`` field. Each of the five trace records declares
its fields once, as the parameters of the ``__init__`` that checks and
normalises them; they are its slots. Records are not dataclasses, the engine
never mutates them, and they are not hashable. The configuration is a frozen
dataclass; a metric result and a report are NamedTuples, immutable, equal to
a plain tuple of their values and not checked again. Timestamps are integer
ticks from the trace. No wall-clock value sits in a metric result or a
report, so a replay gives an equal report.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import ge, itemgetter
from typing import Any, Callable, NamedTuple, Union


class InputError(ValueError):
    """Input the gate rejects. Given a line number, the message starts with
    ``line N: ``; record_type is the known wire type the rejected trace line
    named, or None."""

    def __init__(self, message: str, line_number: int | None = None,
                 record_type: str | None = None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.record_type = record_type


class ValidationError(InputError):
    """A record or configuration value violates a domain invariant."""


class TraceParseError(InputError):
    """A trace line could not be parsed into a record."""


class EvaluationError(RuntimeError):
    """A metric could not be evaluated (probe failure, missing dependency)."""


class ToolCallState(str, Enum):
    SUCCESS = "SUCCESS"
    PARTIAL = "PARTIAL"
    FAILED = "FAILED"


# Each state by its value; a member finds itself, since it equals its value.
_STATES = {s.value: s for s in ToolCallState}


class Dimension(str, Enum):
    CASCADE = "CASCADE"
    TOOL = "TOOL"
    DISTRIBUTION = "DISTRIBUTION"
    EXPLANATION = "EXPLANATION"
    CONSISTENCY = "CONSISTENCY"


def _require_unit(name: str, value: float) -> float:
    value = _require_real(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value


def _require_real(name: str, value: Any) -> float:
    if type(value) is float and value - value == 0.0:  # false for NaN and +-inf
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return number


_FLOAT_MAX = sys.float_info.max
_FLOAT, _STR = {float}, {str}

# Ticks lie in [-MAX_TICK, MAX_TICK], so the difference of any two converts to a float.
MAX_TICK = 2**1022
_ECHO_CHARS = 100  # an error text echoes at most this many characters of a value's repr


def _require_tick(value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError("timestamp must be an integer tick")
    if abs(value) > MAX_TICK:
        raise ValidationError("timestamp must be an integer tick in [-2**1022, 2**1022]")


def _echo(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= _ECHO_CHARS else f"{text[:_ECHO_CHARS]}...[{len(text)} characters]"


def _fields(init: Callable[..., None]) -> tuple[str, ...]:
    """A record's fields: the parameters of its __init__ after self, in order."""
    return init.__code__.co_varnames[1:init.__code__.co_argcount]


class _Record:
    """A dataclass's equality and repr over a record's fields; __eq__ alone makes it unhashable."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({shown})"


# The five records below check every field in their own __init__, one frame
# per record. Each check of a number, or of a list of numbers or of names,
# starts with an exact-type test that accepts a subset of what the general
# check accepts; anything else takes the general check, which gives the error
# text. A number is stored as the float that check returns.


class StepResult(_Record):
    """One pipeline step with its self-reported confidence."""

    def __init__(self, step_index: int, step_name: str, confidence: float):
        if type(step_index) is bool or not isinstance(step_index, int):
            raise ValidationError("step_index must be an integer")
        if step_index < 1:
            raise ValidationError(f"step_index must be >= 1, got {_echo(step_index)}")
        if not isinstance(step_name, str):
            raise ValidationError("step_name must be a string")
        if type(confidence) is not float or not 0.0 <= confidence <= 1.0:
            confidence = _require_unit("confidence", confidence)
        self.step_index, self.step_name, self.confidence = step_index, step_name, confidence

    __slots__ = __match_args__ = _fields(__init__)


class ToolCallRecord(_Record):
    """One tool invocation outcome. PARTIAL means schema-valid but incomplete."""

    def __init__(self, tool_name: str, state: ToolCallState, latency_ms: float, timestamp: int):
        try:
            self.state = _STATES[state]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ValidationError(
                f"state must be one of {[s.value for s in ToolCallState]}, got {_echo(state)}"
            ) from None
        if not isinstance(tool_name, str):
            raise ValidationError("tool_name must be a string")
        if type(latency_ms) is not float or not 0.0 <= latency_ms <= _FLOAT_MAX:
            latency_ms = _require_real("latency_ms", latency_ms)
            if latency_ms < 0:
                raise ValidationError(f"latency_ms must be >= 0, got {latency_ms}")
        if type(timestamp) is not int or not -MAX_TICK <= timestamp <= MAX_TICK:
            _require_tick(timestamp)
        self.tool_name, self.latency_ms, self.timestamp = tool_name, latency_ms, timestamp

    __slots__ = __match_args__ = _fields(__init__)


class OutputEvent(_Record):
    """One categorized output, optionally tagged with an external quality signal."""

    def __init__(self, category: str, session_id: str, timestamp: int,
                 quality_signal: float | None = None):
        if not isinstance(category, str) or not category:
            raise ValidationError("category must be a non-empty string")
        if not isinstance(session_id, str):
            raise ValidationError("session_id must be a string")
        if type(timestamp) is not int or not -MAX_TICK <= timestamp <= MAX_TICK:
            _require_tick(timestamp)
        if quality_signal is not None and (
                type(quality_signal) is not float or not 0.0 <= quality_signal <= 1.0):
            quality_signal = _require_unit("quality_signal", quality_signal)
        self.category, self.session_id, self.timestamp = category, session_id, timestamp
        self.quality_signal = quality_signal

    __slots__ = __match_args__ = _fields(__init__)


class AttributionCase(_Record):
    """A decision's claimed attribution over distinct features, ranked by
    descending weight."""

    def __init__(self, feature_names: tuple[str, ...], claimed_weights: tuple[float, ...],
                 decision_value: float):
        names, weights = feature_names, claimed_weights
        if not isinstance(names, (list, tuple)) or not isinstance(weights, (list, tuple)):
            raise ValidationError("feature_names and claimed_weights must be lists")
        names = tuple(names)
        if {*map(type, weights)} != _FLOAT or not all(map(math.isfinite, weights)):
            weights = (_require_real("claimed_weights", w) for w in weights)
        weights = tuple(weights)
        if len(names) != len(weights):
            raise ValidationError("feature_names and claimed_weights must have equal length")
        if len(weights) < 2:
            raise ValidationError("an attribution case needs at least 2 features")
        if ({*map(type, names)} != _STR or "" in names) and \
                any(not isinstance(f, str) or not f for f in names):
            raise ValidationError("feature_names must be non-empty strings")
        if min(weights) < 0:
            raise ValidationError("claimed_weights must be >= 0")
        if not all(map(ge, weights, weights[1:])):
            raise ValidationError("claimed_weights must be non-increasing")
        if type(decision_value) is not float or decision_value - decision_value != 0.0:
            decision_value = _require_real("decision_value", decision_value)
        if len(set(names)) != len(names):
            raise ValidationError("feature_names must be distinct")
        self.feature_names, self.claimed_weights = names, weights
        self.decision_value = decision_value

    __slots__ = __match_args__ = _fields(__init__)


class RequestPair(_Record):
    """Two surface forms of one request, with the decision each received."""

    def __init__(self, text_a: str, text_b: str, decision_a: str, decision_b: str):
        texts = text_a, text_b, decision_a, decision_b
        for name, value in zip(self.__slots__, texts):  # the slots are the fields, in order
            if not isinstance(value, str) or not value:
                raise ValidationError(f"{name} must be a non-empty string")
        self.text_a, self.text_b, self.decision_a, self.decision_b = texts

    __slots__ = __match_args__ = _fields(__init__)


TraceRecord = Union[StepResult, ToolCallRecord, OutputEvent, AttributionCase, RequestPair]

# Wire name of each record type. Its __init__'s parameters are its wire schema,
# those without a default required. Unknown fields such as "reasoning" or
# "context" are accepted and ignored; unknown types are not.
RECORD_TYPES: dict[str, type] = {
    "step": StepResult,
    "tool_call": ToolCallRecord,
    "output": OutputEvent,
    "attribution": AttributionCase,
    "request_pair": RequestPair,
}


class MetricResult(NamedTuple):
    """One dimension's score and confidence in [0, 1], its gate verdict and
    sub-signals; equal to a plain tuple of the same values. The fields, in
    order, are the keys of the dimension's entry in the report."""

    score: float
    confidence: float
    passed: bool
    metadata: dict[str, Any]


class EvalReport(NamedTuple):
    """Per-dimension results, the aggregate score, and the gate verdict;
    equal to a plain tuple of the same values."""

    per_dimension: dict[Dimension, MetricResult]
    overall_score: float
    passed: bool


DIMENSION_KEYS = tuple(d.value.lower() for d in Dimension)


@dataclass(frozen=True)
class EvalConfig:
    """Every threshold and weight the engine consumes.

    ``lambda_`` is spelled ``lambda`` in config files. ``dimension_thresholds``
    and ``aggregate_weights`` are keyed by lowercase dimension name; keys left
    out of either map take the field's default. Number fields are stored as floats.
    """

    tau_u: float = 0.5
    lambda_: float = 0.5
    alpha: float = 0.5
    beta: float = 0.25
    gamma: float = 0.25
    k_top: int = 20
    window_size: int = 100
    theta_acs: float = 0.5
    delta_min: float = 0.05
    theta_ar: float = 0.9
    theta_prr: float = 0.20
    acc_stability_band: float = 0.02
    acc_delta_cumulative: bool = False
    dimension_thresholds: dict[str, float] = field(
        default_factory=lambda: {k: 0.6 for k in DIMENSION_KEYS}
    )
    aggregate_weights: dict[str, float] = field(
        default_factory=lambda: {k: 1.0 for k in DIMENSION_KEYS}
    )

    def __post_init__(self) -> None:
        for name, f in CONFIG_FIELDS.items():
            value = getattr(self, f.name)
            if f.type == "bool":
                if not isinstance(value, bool):
                    raise ValidationError(f"{name} must be a boolean")
            elif f.type == "int":
                if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                    raise ValidationError(f"{name} must be an integer >= 1")
            elif f.type == "float":
                value = _require_real(name, value)
                if f.name == "lambda_":
                    if value < 0:
                        raise ValidationError("lambda must be >= 0")
                else:
                    _require_unit(name, value)
                object.__setattr__(self, f.name, value)
            else:
                if not isinstance(value, dict):
                    raise ValidationError(f"{name} must be an object")
                for key in value:
                    if key not in DIMENSION_KEYS:
                        raise ValidationError(f"unknown dimension in {name}: {_echo(key)}")
                object.__setattr__(self, f.name, {**f.default_factory(), **value})
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-9:
            raise ValidationError(
                f"alpha + beta + gamma must equal 1, got {self.alpha + self.beta + self.gamma}"
            )
        # Both maps were copied above, so each value can be replaced by its float.
        for key, value in self.dimension_thresholds.items():
            self.dimension_thresholds[key] = _require_unit(f"dimension_thresholds[{key}]", value)
        total = 0.0
        for key, value in self.aggregate_weights.items():
            value = self.aggregate_weights[key] = _require_real(f"aggregate_weights[{key}]", value)
            if value < 0:
                raise ValidationError(f"aggregate_weights[{key}] must be >= 0")
            total += value
        if total <= 0:
            raise ValidationError("aggregate_weights must sum to a positive value")
        if not math.isfinite(total):
            raise ValidationError("aggregate_weights must have a finite sum")

    def threshold(self, dimension: Dimension) -> float:
        return self.dimension_thresholds[dimension.value.lower()]

    def weight(self, dimension: Dimension) -> float:
        return self.aggregate_weights[dimension.value.lower()]

    def to_payload(self) -> dict[str, Any]:
        """The resolved config under its config-file key names."""
        return {key: getattr(self, f.name) for key, f in CONFIG_FIELDS.items()}


# Each config-file key and its EvalConfig field, in order; "lambda_" is read as "lambda".
CONFIG_FIELDS = {f.name.rstrip("_"): f for f in fields(EvalConfig)}


# Per wire name: the record class, a getter for its required fields, and its optional
# fields. An absent optional field is read as None, so each must default to None.
def _wire_schema(cls: type) -> tuple[type, Callable[[dict], tuple], tuple[str, ...]]:
    defaults = cls.__init__.__defaults__ or ()
    if any(default is not None for default in defaults):
        raise TypeError("an optional trace record field must default to None")
    split = len(cls.__slots__) - len(defaults)
    return cls, itemgetter(*cls.__slots__[:split]), cls.__slots__[split:]


_WIRE_SCHEMA = {name: _wire_schema(cls) for name, cls in RECORD_TYPES.items()}
_WIRE_NAMES = {cls: name for name, cls in RECORD_TYPES.items()}
_scan_once = json.JSONDecoder().scan_once


def json_rejection(exc: ValueError | RecursionError) -> str:
    """Why json.loads rejected a text: json's message, or the reason for its RecursionError
    (deep nesting) or ValueError (an integer past sys.get_int_max_str_digits())."""
    if isinstance(exc, json.JSONDecodeError):
        return exc.msg
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    return "integer has too many digits"


def parse_trace_record(line: str, line_number: int | None = None) -> TraceRecord:
    """Parse one trace line into its record type.

    A line that json.loads's scanner reads whole from index 0 has no leading BOM or
    whitespace, so json.loads returns an equal value; it decides every other line.
    Raises TraceParseError for malformed JSON, unknown types, or missing
    fields, and ValidationError for invariant violations; either names the
    line when given its number, and the wire type once the type is known.
    """
    try:
        payload, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError, TypeError):  # TypeError: bytes
        end = -1
    if end != len(line):
        try:
            payload = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise TraceParseError(f"invalid JSON: {json_rejection(exc)}", line_number) from None
    if not isinstance(payload, dict):
        raise TraceParseError("record must be a JSON object", line_number)
    record_type = payload.get("type")
    try:
        cls, required, optional = _WIRE_SCHEMA[record_type]
    except (KeyError, TypeError):  # TypeError: an unhashable type value
        raise TraceParseError(f"unknown record type: {_echo(record_type)}", line_number) from None
    try:
        values = required(payload)
    except KeyError as exc:
        raise TraceParseError(f"{record_type} record missing field {exc.args[0]!r}",
                              line_number, record_type) from None
    try:
        if optional:
            return cls(*values, *map(payload.get, optional))
        return cls(*values)
    except ValidationError as exc:
        raise ValidationError(str(exc), line_number, record_type) from exc


def serialize_trace_record(record: TraceRecord) -> str:
    """Serialize a record to its one-line wire form. Round-trips via parse."""
    payload: dict[str, Any] = {"type": _WIRE_NAMES[type(record)]}
    for name in record.__slots__:
        value = getattr(record, name)
        if value is not None:
            payload[name] = value
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)
