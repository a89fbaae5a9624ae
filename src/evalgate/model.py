"""Core domain types: trace records, metric results, reports, configuration.

Trace records arrive as a line-delimited JSON stream, one record per line,
discriminated by a ``type`` field. The five trace records are slotted value
objects: they check and normalise their fields on construction, the engine
never mutates them, and they are not hashable. Metric results, reports and
the configuration are frozen. Timestamps are integer ticks supplied by the
trace. The engine times its scorers for stderr, but no wall-clock value
reaches the report, so replays are deterministic.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from operator import itemgetter
from typing import Any, Union


class ValidationError(ValueError):
    """A record or configuration value violates a domain invariant."""


class TraceParseError(ValueError):
    """A trace line could not be parsed into a record."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


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

# Ticks lie in [-MAX_TICK, MAX_TICK], so the difference of any two converts to a float.
MAX_TICK = 2**1022


def _require_tick(value: Any) -> None:
    if type(value) is int and -MAX_TICK <= value <= MAX_TICK:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError("timestamp must be an integer tick")
    if abs(value) > MAX_TICK:
        raise ValidationError("timestamp must be an integer tick in [-2**1022, 2**1022]")


# The records below check every field in __post_init__. Each check of a
# number starts with an exact-type test that accepts a subset of what the
# general check accepts; anything else takes the general check, which gives
# the error text. A field is written back only when its value changes type.


@dataclass(slots=True)
class StepResult:
    """One pipeline step with its self-reported confidence."""

    step_index: int
    step_name: str
    confidence: float

    def __post_init__(self) -> None:
        if isinstance(self.step_index, bool) or not isinstance(self.step_index, int):
            raise ValidationError("step_index must be an integer")
        if self.step_index < 1:
            raise ValidationError(f"step_index must be >= 1, got {self.step_index}")
        if not isinstance(self.step_name, str):
            raise ValidationError("step_name must be a string")
        confidence = self.confidence
        if type(confidence) is not float or not 0.0 <= confidence <= 1.0:
            self.confidence = _require_unit("confidence", confidence)


@dataclass(slots=True)
class ToolCallRecord:
    """One tool invocation outcome. PARTIAL means schema-valid but incomplete."""

    tool_name: str
    state: ToolCallState
    latency_ms: float
    timestamp: int

    def __post_init__(self) -> None:
        try:
            self.state = _STATES[self.state]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ValidationError(
                f"state must be one of {[s.value for s in ToolCallState]}, got {self.state!r}"
            ) from None
        if not isinstance(self.tool_name, str):
            raise ValidationError("tool_name must be a string")
        latency = self.latency_ms
        if type(latency) is not float or not 0.0 <= latency <= _FLOAT_MAX:
            latency = _require_real("latency_ms", latency)
            if latency < 0:
                raise ValidationError(f"latency_ms must be >= 0, got {latency}")
            self.latency_ms = latency
        _require_tick(self.timestamp)


@dataclass(slots=True)
class OutputEvent:
    """One categorized output, optionally tagged with an external quality signal."""

    category: str
    session_id: str
    timestamp: int
    quality_signal: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.category, str) or not self.category:
            raise ValidationError("category must be a non-empty string")
        if not isinstance(self.session_id, str):
            raise ValidationError("session_id must be a string")
        _require_tick(self.timestamp)
        quality = self.quality_signal
        if quality is not None and (type(quality) is not float or not 0.0 <= quality <= 1.0):
            self.quality_signal = _require_unit("quality_signal", quality)


@dataclass(slots=True)
class AttributionCase:
    """A decision's claimed feature attribution, ranked by descending weight."""

    feature_names: tuple[str, ...]
    claimed_weights: tuple[float, ...]
    decision_value: float

    def __post_init__(self) -> None:
        if not isinstance(self.feature_names, (list, tuple)) or \
                not isinstance(self.claimed_weights, (list, tuple)):
            raise ValidationError("feature_names and claimed_weights must be lists")
        if type(self.feature_names) is not tuple:
            self.feature_names = tuple(self.feature_names)
        weights = tuple(_require_real("claimed_weights", w) for w in self.claimed_weights)
        self.claimed_weights = weights
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
        decision = self.decision_value
        if type(decision) is not float or decision - decision != 0.0:
            self.decision_value = _require_real("decision_value", decision)


@dataclass(slots=True)
class RequestPair:
    """Two surface forms of one request, with the decision each received."""

    text_a: str
    text_b: str
    decision_a: str
    decision_b: str

    def __post_init__(self) -> None:
        for name in ("text_a", "text_b", "decision_a", "decision_b"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ValidationError(f"{name} must be a non-empty string")


TraceRecord = Union[StepResult, ToolCallRecord, OutputEvent, AttributionCase, RequestPair]

# Wire name of each record type. The dataclass fields are the wire schema:
# fields without a default are required, the rest optional. Unknown fields
# such as "reasoning" or "context" are accepted and ignored; unknown types
# are not.
RECORD_TYPES: dict[str, type] = {
    "step": StepResult,
    "tool_call": ToolCallRecord,
    "output": OutputEvent,
    "attribution": AttributionCase,
    "request_pair": RequestPair,
}


@dataclass(frozen=True, slots=True)
class MetricResult:
    """One dimension's normalized score plus its gate verdict and sub-signals."""

    score: float
    confidence: float
    latency_ms: float
    passed: bool
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "score", _require_unit("score", self.score))
        object.__setattr__(self, "confidence", _require_unit("confidence", self.confidence))


@dataclass(frozen=True, slots=True)
class EvalReport:
    """Per-dimension results, the aggregate score, and the gate verdict."""

    per_dimension: dict[Dimension, MetricResult]
    overall_score: float
    passed: bool
    total_latency_ms: float


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
        for f in fields(self):
            name = f.name.rstrip("_")
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
                        raise ValidationError(f"unknown dimension in {name}: {key!r}")
                object.__setattr__(self, f.name, {**f.default_factory(), **value})
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-9:
            raise ValidationError(
                f"alpha + beta + gamma must equal 1, got {self.alpha + self.beta + self.gamma}"
            )
        for key, value in self.dimension_thresholds.items():
            _require_unit(f"dimension_thresholds[{key}]", value)
        total = 0.0
        for key, value in self.aggregate_weights.items():
            if _require_real(f"aggregate_weights[{key}]", value) < 0:
                raise ValidationError(f"aggregate_weights[{key}] must be >= 0")
            total += value
        if total <= 0:
            raise ValidationError("aggregate_weights must sum to a positive value")

    def threshold(self, dimension: Dimension) -> float:
        return self.dimension_thresholds[dimension.value.lower()]

    def weight(self, dimension: Dimension) -> float:
        return self.aggregate_weights[dimension.value.lower()]

    def to_payload(self) -> dict[str, Any]:
        """The resolved config under its config-file key names."""
        return {f.name.rstrip("_"): getattr(self, f.name) for f in fields(self)}


# Per wire name: the record class, a getter for its required fields in
# declaration order, and the names of its optional fields.
_WIRE_SCHEMA = {
    name: (
        cls,
        itemgetter(*(f.name for f in fields(cls) if f.default is MISSING)),
        tuple(f.name for f in fields(cls) if f.default is not MISSING),
    )
    for name, cls in RECORD_TYPES.items()
}
_WIRE_NAMES = {cls: name for name, cls in RECORD_TYPES.items()}


def parse_trace_record(line: str, line_number: int | None = None) -> TraceRecord:
    """Parse one trace line into its record type.

    Raises TraceParseError for malformed JSON, unknown types, or missing
    fields, and ValidationError (with line context) for invariant violations.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"invalid JSON: {exc.msg}", line_number) from exc
    except RecursionError:
        raise TraceParseError("invalid JSON: nested too deeply", line_number) from None
    except ValueError:  # an integer longer than sys.get_int_max_str_digits()
        raise TraceParseError("invalid JSON: integer has too many digits", line_number) from None
    if not isinstance(payload, dict):
        raise TraceParseError("record must be a JSON object", line_number)
    record_type = payload.get("type")
    try:
        cls, required, optional = _WIRE_SCHEMA[record_type]
    except (KeyError, TypeError):  # TypeError: an unhashable type value
        raise TraceParseError(f"unknown record type: {record_type!r}", line_number) from None
    try:
        values = required(payload)
    except KeyError as exc:
        raise TraceParseError(
            f"{record_type} record missing field {exc.args[0]!r}", line_number
        ) from None
    try:
        if optional:
            return cls(*values, **{name: payload[name] for name in optional if name in payload})
        return cls(*values)
    except ValidationError as exc:
        if line_number is not None:
            raise ValidationError(f"line {line_number}: {exc}") from exc
        raise


def serialize_trace_record(record: TraceRecord) -> str:
    """Serialize a record to its one-line wire form. Round-trips via parse."""
    try:
        payload: dict[str, Any] = {"type": _WIRE_NAMES[type(record)]}
    except KeyError:
        raise TypeError(f"not a trace record: {type(record).__name__}") from None
    for f in fields(record):
        value = getattr(record, f.name)
        if value is not None:
            payload[f.name] = value
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)
