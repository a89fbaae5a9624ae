"""Tool reliability: partial response rate, latency-quality coupling, and the
silent-degradation flag.

Partial responses are schema-valid answers built from stale or defaulted
data; they carry no error signal, so a rising partial rate against a flat
external accuracy is the degradation signature this module detects.
Explicit FAILED calls are tallied but never scored: they are already visible
to ordinary monitoring.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from itertools import repeat
from typing import NamedTuple

from .model import EvalConfig, ToolCallRecord, ToolCallState
from .stats import UndefinedStatisticError, pearson

# Equal-width tick buckets used when correlating latency with quality.
LATENCY_BUCKET_COUNT = 10


class ReliabilityResult(NamedTuple):
    """The tool calls' score and signals; equal to a plain tuple of the same values."""

    prr: float
    rho_lq: float
    bucket_count: int
    call_counts: dict[str, int]
    silent_degradation: bool
    score: float
    rho_fallback: str | None = None


def partial_response_rate(calls: Sequence[ToolCallRecord]) -> float:
    """Fraction of calls in PARTIAL state; calls must be non-empty."""
    return sum(call.state == ToolCallState.PARTIAL for call in calls) / len(calls)


def percentile_nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct * m)-th smallest value; values must be non-empty."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered)))
    return ordered[rank - 1]


def bucket_indices(
    timestamps: Sequence[int],
    bucket_count: int,
    lo: int | None = None,
    hi: int | None = None,
) -> list[int]:
    """Assign each integer tick to one of ``bucket_count`` equal-width buckets.

    Bounds default to the ticks' own span; ticks outside explicit bounds
    clamp to the edge buckets. The rule max(0, min(bucket_count - 1,
    int((t - lo) / width))) never falls as t grows, so each bucket's least
    tick is found once, by bisection, and a tick's bucket is the number of
    those at or below it.
    """
    lo = min(timestamps) if lo is None else lo
    hi = max(timestamps) if hi is None else hi
    if hi <= lo:
        return [0] * len(timestamps)
    width = (hi - lo) / bucket_count
    starts: list[int] = []
    low = lo  # the rule puts lo in bucket 0 and hi in the last bucket
    for b in range(1, bucket_count):
        high = hi
        while low < high:
            mid = (low + high) // 2
            low, high = (mid + 1, high) if int((mid - lo) / width) < b else (low, mid)
        starts.append(low)
    return [*map(bisect_right, repeat(starts), timestamps)]


def latency_quality_correlation(
    calls: Sequence[ToolCallRecord],
    quality: Sequence[float],
    baseline_quality: float,
) -> float:
    """Pearson correlation between per-bucket p95 latency and quality drop.

    Calls are split into len(quality) equal-width tick buckets; bucket b pairs
    its p95 latency with baseline_quality - quality[b]. Buckets containing no
    calls are dropped along with their quality point; calls must be non-empty.
    """
    return _latency_quality_rho(
        [c.timestamp for c in calls], [c.latency_ms for c in calls], quality, baseline_quality
    )


def _latency_quality_rho(
    ticks: Sequence[int],
    latencies: Sequence[float],
    quality: Sequence[float],
    baseline_quality: float,
) -> float:
    """latency_quality_correlation over the calls' tick and latency columns."""
    from array import array
    bucket_count = len(quality)
    assignments = bucket_indices(ticks, bucket_count)
    buckets = [array("d") for _ in range(bucket_count)]  # only the one being sorted is boxed
    for latency, b in zip(latencies, assignments):
        buckets[b].append(latency)

    p95_series: list[float] = []
    drop_series: list[float] = []
    for b in range(bucket_count):
        if not buckets[b]:
            continue
        p95_series.append(percentile_nearest_rank(buckets[b], 0.95))
        drop_series.append(baseline_quality - quality[b])
    if len(p95_series) < 3:
        raise UndefinedStatisticError(
            f"only {len(p95_series)} non-empty latency buckets; need >= 3"
        )
    return pearson(p95_series, drop_series)


def tool_reliability_score(prr: float, rho_lq: float) -> float:
    """clamp(1 - prr * (1 + max(rho_lq, 0))) into [0, 1], for prr in [0, 1], rho_lq in [-1, 1]."""
    return min(1.0, max(0.0, 1.0 - prr * (1.0 + max(rho_lq, 0.0))))


def detect_silent_degradation(
    prr: float, external_accuracy_delta: float, config: EvalConfig
) -> bool:
    """True when the partial rate crossed theta_prr while accuracy looked flat."""
    return prr > config.theta_prr and abs(external_accuracy_delta) <= config.acc_stability_band


def evaluate_reliability(
    ticks: Sequence[int],
    latencies: Sequence[float],
    state_counts: dict[str, int],
    quality: Sequence[float] | None,
    config: EvalConfig,
) -> ReliabilityResult:
    """Assemble the full reliability result for one window of calls.

    The calls come as columns: sequences (lists, or arrays of 8-byte numbers)
    of each call's tick and latency in call order, and the number of calls
    in each state, keyed by state value in ToolCallState order; ticks must be
    non-empty.

    ``quality`` is the time-bucketed quality series aligned to the calls'
    tick span, and its first point is the baseline that quality drops are
    measured from; when it is missing or too sparse for a correlation, rho
    falls back to 0 and the reason is recorded. The silent-degradation flag
    compares consecutive quality points by default, or the last point
    against the first when acc_delta_cumulative is set.
    """
    prr = state_counts[ToolCallState.PARTIAL.value] / sum(state_counts.values())
    rho = 0.0
    fallback: str | None = None
    silent = False
    if quality is None:
        fallback = "no quality signal in window"
    else:
        try:
            rho = _latency_quality_rho(ticks, latencies, quality, quality[0])
        except UndefinedStatisticError as exc:
            fallback = str(exc)
        if len(quality) >= 2:
            if config.acc_delta_cumulative:
                deltas = [quality[-1] - quality[0]]
            else:
                deltas = [b - a for a, b in zip(quality, quality[1:])]
            silent = all(detect_silent_degradation(prr, delta, config) for delta in deltas)

    return ReliabilityResult(
        prr=prr,
        rho_lq=rho,
        bucket_count=len(quality or ()),
        call_counts=state_counts,
        silent_degradation=silent,
        score=tool_reliability_score(prr, rho),
        rho_fallback=fallback,
    )
