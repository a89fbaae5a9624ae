"""The reference oracle of every differential test, written from README and
the paper's formulas and slow on purpose: the record checks before their fast
paths, a json.loads-first parser, the hash embedding without a memo and the
cosine over every entry, and a list-based evaluator that groups records by
type, splits pipelines at index resets, builds windows from a ring buffer,
scores each attribution case and request pair on its own and adds means left
to right. It calls per-unit formulas only (stats, evaluate_cascade on one
pipeline, evaluate_explanation on one case, the reliability formulas), and
none of the machinery it checks: no fold, no memo, no fast path."""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter, deque, namedtuple
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Any

from evalgate.cascade import evaluate_cascade
from evalgate.explanation import evaluate_explanation
from evalgate.model import (RECORD_TYPES, Dimension, EvaluationError, ToolCallState,
                            TraceParseError, ValidationError)
from evalgate.reliability import (LATENCY_BUCKET_COUNT, detect_silent_degradation,
                                  percentile_nearest_rank, tool_reliability_score)
from evalgate.stats import UndefinedStatisticError, normalized_entropy, pearson


def exact(value: Any) -> Any:
    """The value, typed at every level: floats by float.hex, records by field."""
    kind = type(value).__name__
    names = getattr(value, "_fields", None) or getattr(value, "__dataclass_fields__", None)
    if type(value) in RECORD_TYPES.values():  # a trace record's slots are its fields
        names = value.__slots__
    if names is not None:
        return kind, [(name, exact(getattr(value, name))) for name in names]
    if type(value) is float:
        return kind, value.hex()
    if isinstance(value, dict):
        return kind, [(exact(key), exact(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return kind, [exact(item) for item in value]
    return kind, value


def outcome(function, *args) -> Any:
    """exact(function(*args)), or the type and text of any error it raises."""
    try:
        return exact(function(*args))
    except Exception as exc:
        return "raises", type(exc).__name__, str(exc)


ECHO_CHARS = 100  # an error text echoes at most this many characters of a value's repr


def echo(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= ECHO_CHARS else f"{text[:ECHO_CHARS]}...[{len(text)} characters]"


# The records, with their checks as they were before the fast paths.
StepResult = namedtuple("StepResult", "step_index step_name confidence")
ToolCallRecord = namedtuple("ToolCallRecord", "tool_name state latency_ms timestamp")
OutputEvent = namedtuple("OutputEvent", "category session_id timestamp quality_signal",
                         defaults=[None])
AttributionCase = namedtuple("AttributionCase", "feature_names claimed_weights decision_value")
RequestPair = namedtuple("RequestPair", "text_a text_b decision_a decision_b")


def real(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return number


def unit(name: str, value: Any) -> float:
    value = real(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value


def tick(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError("timestamp must be an integer tick")
    if abs(value) > 2**1022:
        raise ValidationError("timestamp must be an integer tick in [-2**1022, 2**1022]")
    return value


def step(step_index, step_name, confidence) -> StepResult:
    if isinstance(step_index, bool) or not isinstance(step_index, int):
        raise ValidationError("step_index must be an integer")
    if step_index < 1:
        raise ValidationError(f"step_index must be >= 1, got {echo(step_index)}")
    if not isinstance(step_name, str):
        raise ValidationError("step_name must be a string")
    return StepResult(step_index, step_name, unit("confidence", confidence))


def tool_call(tool_name, state, latency_ms, timestamp) -> ToolCallRecord:
    try:
        state = ToolCallState(state)
    except ValueError:
        raise ValidationError(
            f"state must be one of {[s.value for s in ToolCallState]}, got {echo(state)}"
        ) from None
    if not isinstance(tool_name, str):
        raise ValidationError("tool_name must be a string")
    latency = real("latency_ms", latency_ms)
    if latency < 0:
        raise ValidationError(f"latency_ms must be >= 0, got {latency}")
    return ToolCallRecord(tool_name, state, latency, tick(timestamp))


def output(category, session_id, timestamp, quality_signal=None) -> OutputEvent:
    if not isinstance(category, str) or not category:
        raise ValidationError("category must be a non-empty string")
    if not isinstance(session_id, str):
        raise ValidationError("session_id must be a string")
    tick(timestamp)
    quality = None if quality_signal is None else unit("quality_signal", quality_signal)
    return OutputEvent(category, session_id, timestamp, quality)


def attribution(feature_names, claimed_weights, decision_value) -> AttributionCase:
    if not isinstance(feature_names, (list, tuple)) or not isinstance(claimed_weights, (list, tuple)):
        raise ValidationError("feature_names and claimed_weights must be lists")
    names, weights = tuple(feature_names), tuple(real("claimed_weights", w) for w in claimed_weights)
    if len(names) != len(weights):
        raise ValidationError("feature_names and claimed_weights must have equal length")
    if len(weights) < 2:
        raise ValidationError("an attribution case needs at least 2 features")
    if any(not isinstance(f, str) or not f for f in names):
        raise ValidationError("feature_names must be non-empty strings")
    if any(w < 0 for w in weights):
        raise ValidationError("claimed_weights must be >= 0")
    if any(a < b for a, b in zip(weights, weights[1:])):
        raise ValidationError("claimed_weights must be non-increasing")
    decision = real("decision_value", decision_value)
    if len(set(names)) != len(names):
        raise ValidationError("feature_names must be distinct")
    return AttributionCase(names, weights, decision)


def request_pair(text_a, text_b, decision_a, decision_b) -> RequestPair:
    pair = RequestPair(text_a, text_b, decision_a, decision_b)
    for name, value in zip(pair._fields, pair):
        if not isinstance(value, str) or not value:
            raise ValidationError(f"{name} must be a non-empty string")
    return pair


# Per wire type: the record (its fields without a default are required) and its check.
RECORDS = {"step": (StepResult, step), "tool_call": (ToolCallRecord, tool_call),
           "output": (OutputEvent, output), "attribution": (AttributionCase, attribution),
           "request_pair": (RequestPair, request_pair)}


def parse(line: str | bytes, line_number: int | None = None) -> Any:
    """One trace line as a record: json.loads, then the type, the first
    missing required field in declaration order, then the record's check."""

    def error(kind: type, message: str) -> Exception:
        return kind(message if line_number is None else f"line {line_number}: {message}")

    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise error(TraceParseError, f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise error(TraceParseError, "invalid JSON: nested too deeply") from None
    except ValueError:  # an integer longer than sys.get_int_max_str_digits()
        raise error(TraceParseError, "invalid JSON: integer has too many digits") from None
    if not isinstance(payload, dict):
        raise error(TraceParseError, "record must be a JSON object")
    record_type = payload.get("type")
    if not isinstance(record_type, str) or record_type not in RECORDS:
        raise error(TraceParseError, f"unknown record type: {echo(record_type)}")
    record, check = RECORDS[record_type]
    for name in record._fields:
        if name not in payload and name not in record._field_defaults:
            raise error(TraceParseError, f"{record_type} record missing field {name!r}")
    try:
        return check(**{name: payload[name] for name in record._fields if name in payload})
    except ValidationError as exc:
        raise error(ValidationError, str(exc)) from None


def embed(text: str, dimension: int = 256) -> list[float]:
    """Token counts at sha256-hashed indices over their L2 norm; no token memo."""
    vector = [0.0] * dimension
    for token in text.lower().split() or [text]:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        vector[int.from_bytes(digest[:8], "big") % dimension] += 1.0
    norm = math.sqrt(math.fsum(x * x for x in vector))
    return [x / norm for x in vector]


def cosine(u: list[float], v: list[float]) -> float:
    """The cosine of two vectors over every entry; equal vectors give exactly 1."""
    if len(u) != len(v):
        raise UndefinedStatisticError(f"dimension mismatch: {len(u)} vs {len(v)}")
    if len(u) < 1:
        raise UndefinedStatisticError("vectors must have dimension >= 1")
    for name, values in (("u", u), ("v", v)):
        for x in values:
            if not math.isfinite(x):
                raise UndefinedStatisticError(f"{name} contains a non-finite value: {x!r}")
    su, sv = math.fsum(a * a for a in u), math.fsum(b * b for b in v)
    if su == 0.0 or sv == 0.0:
        raise UndefinedStatisticError("cosine similarity of a zero vector is undefined")
    if all(a == b for a, b in zip(u, v)):
        return 1.0
    dot = math.fsum(a * b for a, b in zip(u, v))
    return min(1.0, max(-1.0, dot / (math.sqrt(su) * math.sqrt(sv))))


def left_to_right(values: list[float]) -> float:
    """The sum added in order, as sum() adds floats before CPython 3.12."""
    return reduce(add, values, 0.0)


def cascade(steps: list, config, notes: list[str]):
    pipelines: list[list] = []
    for s in steps:
        if not pipelines or s.step_index <= pipelines[-1][-1].step_index:
            pipelines.append([])
        pipelines[-1].append(s)
    results = []
    for pipeline in pipelines:
        try:
            results.append(evaluate_cascade(pipeline, config))
        except UndefinedStatisticError as exc:
            notes.append(f"cascade: {exc}")
    if not results:
        return None
    worst = min(results, key=lambda r: r.score)
    return left_to_right([r.score for r in results]) / len(results), 1.0, dict(
        mean_confidence=worst.mean_confidence, cis=worst.cis, failure_index=worst.failure_index,
        step_confidences=list(worst.step_confidences))


def bucket_indices(ticks: list[int], bucket_count: int, lo: int | None = None,
                   hi: int | None = None) -> list[int]:
    """Each tick's equal-width bucket over [lo, hi] (the ticks' own span by
    default), clamped to the edge buckets; all in bucket 0 when hi <= lo."""
    lo = min(ticks) if lo is None else lo
    hi = max(ticks) if hi is None else hi
    if hi <= lo:
        return [0] * len(ticks)
    width = (hi - lo) / bucket_count
    return [max(0, min(bucket_count - 1, int((t - lo) / width))) for t in ticks]


def state_counts(calls: list) -> dict[str, int]:
    """TOOL's call_counts: the calls in each state, every state of the schema
    in its order, also those no call is in."""
    return {state.value: sum(1 for c in calls if c.state is state) for state in ToolCallState}


def tool(calls: list, events: list, config, notes: list[str]):
    """The partial rate, and rho between each call bucket's p95 latency and
    its quality drop. A bucket's quality is the mean of the tagged events in
    it, or the previous bucket's (the first observed one for leading gaps)."""
    prr = sum(1 for c in calls if c.state is ToolCallState.PARTIAL) / len(calls)
    tagged = [e for e in events if e.quality_signal is not None]
    quality, rho, fallback = None, 0.0, "no quality signal in window"
    if tagged:
        ticks = [c.timestamp for c in calls]
        sums, counts = [0.0] * LATENCY_BUCKET_COUNT, [0] * LATENCY_BUCKET_COUNT
        for e, b in zip(tagged, bucket_indices([e.timestamp for e in tagged], LATENCY_BUCKET_COUNT,
                                               lo=min(ticks), hi=max(ticks))):
            sums[b] += e.quality_signal
            counts[b] += 1
        means = [sums[b] / counts[b] if counts[b] else None for b in range(LATENCY_BUCKET_COUNT)]
        first = next(m for m in means if m is not None)
        quality = list(accumulate(means, lambda last, m: last if m is None else m, initial=first))[1:]
        latencies: list[list[float]] = [[] for _ in quality]
        for c, b in zip(calls, bucket_indices(ticks, len(quality))):
            latencies[b].append(c.latency_ms)
        p95s = [percentile_nearest_rank(lat, 0.95) for lat in latencies if lat]
        drops = [quality[0] - q for q, lat in zip(quality, latencies) if lat]
        try:
            if len(p95s) < 3:
                raise UndefinedStatisticError(f"only {len(p95s)} non-empty latency buckets; need >= 3")
            rho, fallback = pearson(p95s, drops), None
        except UndefinedStatisticError as exc:
            fallback = str(exc)
    silent = False
    if quality:
        deltas = ([quality[-1] - quality[0]] if config.acc_delta_cumulative
                  else [b - a for a, b in zip(quality, quality[1:])])
        silent = all(detect_silent_degradation(prr, d, config) for d in deltas)
    metadata = {"prr": prr, "rho_lq": rho, "bucket_count": len(quality or ()),
                "call_counts": state_counts(calls), "silent_degradation": silent}
    if fallback is not None:
        metadata["rho_fallback"] = fallback
        notes.append(f"tool: {fallback}")
    confidence = min(1.0, len(calls) / config.window_size)
    return tool_reliability_score(prr, rho), confidence, metadata


def snapshot(window: deque, counts: Counter, config) -> tuple[dict[str, Any], float]:
    """One window's signals and score, from the window and its running counts."""
    fill, distinct = len(window), len(counts)
    entropy = normalized_entropy(list(counts.values()), distinct)
    diversity = distinct / config.window_size
    tail = list(window)[fill - min(fill, config.k_top):]
    repeat_rate = max(Counter(e.category for e in tail).values()) / len(tail)
    score = config.alpha * entropy + config.beta * diversity + config.gamma * (1.0 - repeat_rate)
    qualities = [e.quality_signal for e in window if e.quality_signal is not None]
    mean_quality = math.fsum(qualities) / len(qualities) if qualities else None
    return dict(entropy=entropy, diversity=diversity, repeat_rate=repeat_rate, window_fill=fill,
                distinct_categories=distinct, mean_quality=mean_quality), min(1.0, max(0.0, score))


def distribution(events: list, config):
    """A snapshot after every window_size-th event and one at the end; the last is current."""
    window: deque = deque()
    counts: Counter = Counter()
    snapshots = []
    for seen, event in enumerate(events, 1):
        window.append(event)
        counts[event.category] += 1
        if len(window) > config.window_size:
            evicted = window.popleft().category
            counts[evicted] -= 1
            if not counts[evicted]:
                del counts[evicted]
        if seen % config.window_size == 0 or seen == len(events):
            snapshots.append(snapshot(window, counts, config))
    metadata, score = snapshots[-1]
    windows = [{"window": i, **meta, "score": s} for i, (meta, s) in enumerate(snapshots, 1)]
    return score, metadata["window_fill"] / config.window_size, {**metadata, "windows": windows}


def explanation(cases: list, probe_context, config):
    if probe_context is None:
        raise EvaluationError("attribution records present but no probe context supplied; "
                              "pass a ProbeContext to evaluate the EXPLANATION dimension")
    probe, original, baseline = probe_context
    results = [evaluate_explanation(probe, case, baseline, original, config) for case in cases]
    worst = min(results, key=lambda r: r.acs)
    return left_to_right([r.acs for r in results]) / len(results), 1.0, dict(
        acs=worst.acs, impacts=worst.impacts, top_feature=worst.top_feature,
        top_impact=worst.top_impact, decoupled=worst.decoupled)


def consistency(pairs: list, config, dimension: int = 256):
    rate = sum(1 for p in pairs if p.decision_a == p.decision_b) / len(pairs)
    similarities = [cosine(embed(p.text_a, dimension), embed(p.text_b, dimension)) for p in pairs]
    mean_similarity = math.fsum(similarities) / len(pairs)
    return min(1.0, max(0.0, rate * mean_similarity)), 1.0, dict(
        agreement_rate=rate, mean_similarity=mean_similarity, pair_count=len(pairs),
        flagged=rate < config.theta_ar)


def evaluate_records(records, config, probe_context, diagnostics) -> dict[str, Any]:
    """The report document of these records; their counts and notes go into
    ``diagnostics`` as the evaluator puts its own there."""
    by_type: dict[str, list] = {record.__name__: [] for record, _ in RECORDS.values()}
    for record in records:
        if type(record).__name__ not in by_type:
            raise TypeError(f"not a trace record: {type(record).__name__}")
        by_type[type(record).__name__].append(record)
    diagnostics.record_counts = {name: len(kept) for name, kept in zip(RECORDS, by_type.values())}
    steps, calls, events, cases, pairs = by_type.values()
    notes = diagnostics.evaluation_notes
    scorers = (
        (Dimension.CASCADE, steps, lambda: cascade(steps, config, notes)),
        (Dimension.TOOL, calls, lambda: tool(calls, events, config, notes)),
        (Dimension.DISTRIBUTION, events, lambda: distribution(events, config)),
        (Dimension.EXPLANATION, cases, lambda: explanation(cases, probe_context, config)),
        (Dimension.CONSISTENCY, pairs, lambda: consistency(pairs, config)),
    )
    dimensions: dict[str, dict[str, Any]] = {}
    for dimension, inputs, scorer in scorers:
        try:
            result = scorer() if inputs else None
        except UndefinedStatisticError as exc:
            notes.append(f"{dimension.value.lower()}: {exc}")
            continue
        if result is not None:
            score, confidence, metadata = result
            passed = score >= config.dimension_thresholds[dimension.value.lower()]
            dimensions[dimension.value] = dict(score=score, confidence=confidence,
                                               passed=passed, metadata=metadata)
    if not dimensions:
        raise EvaluationError("no evaluable records")
    # The weight-normalised mean of the present dimensions, or their plain mean
    # when every present weight is 0. Weights are first doubled, exactly, until
    # the largest is at least 1.
    scores = [result["score"] for result in dimensions.values()]
    weights = [config.aggregate_weights[key.lower()] for key in dimensions]
    while 0 < max(weights) < 1:
        weights = [2 * w for w in weights]
    total = left_to_right(weights)
    if total > 0:
        overall = left_to_right([w * s for w, s in zip(weights, scores)]) / total
    else:
        overall = left_to_right(scores) / len(scores)
    return dict(config=config.to_payload(), dimensions=dimensions, overall_score=overall,
                passed=all(result["passed"] for result in dimensions.values()),
                record_counts=diagnostics.record_counts, parse_errors=diagnostics.parse_errors,
                evaluation_notes=notes)
