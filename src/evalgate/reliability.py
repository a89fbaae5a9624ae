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
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from .model import EvalConfig, ToolCallRecord, ToolCallState
from .stats import UndefinedStatisticError, pearson

# Equal-width tick buckets used when correlating latency with quality.
LATENCY_BUCKET_COUNT = 10


@dataclass(frozen=True, slots=True)
class ReliabilityResult:
    prr: float
    rho_lq: float
    score: float
    silent_degradation: bool
    call_counts: dict[str, int]
    bucket_count: int
    rho_fallback: str | None = None

    def metadata(self) -> dict[str, Any]:
        meta: dict[str, Any] = {
            "prr": self.prr,
            "rho_lq": self.rho_lq,
            "bucket_count": self.bucket_count,
            "call_counts": dict(self.call_counts),
            "silent_degradation": self.silent_degradation,
        }
        if self.rho_fallback is not None:
            meta["rho_fallback"] = self.rho_fallback
        return meta


def partial_response_rate(calls: Sequence[ToolCallRecord]) -> float:
    """Fraction of calls in PARTIAL state; calls must be non-empty."""
    partial = sum(1 for c in calls if c.state is ToolCallState.PARTIAL)
    return partial / len(calls)


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
    """Assign each tick to one of ``bucket_count`` equal-width buckets.

    Bounds default to the ticks' own span; ticks outside explicit bounds
    clamp to the edge buckets.
    """
    lo = min(timestamps) if lo is None else lo
    hi = max(timestamps) if hi is None else hi
    if hi <= lo:
        return [0] * len(timestamps)
    width = (hi - lo) / bucket_count
    return [max(0, min(bucket_count - 1, int((t - lo) / width))) for t in timestamps]


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
    bucket_count = len(quality)
    assignments = bucket_indices([c.timestamp for c in calls], bucket_count)
    latencies: list[list[float]] = [[] for _ in range(bucket_count)]
    for call, b in zip(calls, assignments):
        latencies[b].append(call.latency_ms)

    p95_series: list[float] = []
    drop_series: list[float] = []
    for b in range(bucket_count):
        if not latencies[b]:
            continue
        p95_series.append(percentile_nearest_rank(latencies[b], 0.95))
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


def count_states(calls: Sequence[ToolCallRecord]) -> dict[str, int]:
    counts = {state.value: 0 for state in ToolCallState}
    for call in calls:
        counts[call.state.value] += 1
    return counts


def evaluate_reliability(
    calls: Sequence[ToolCallRecord],
    quality: Sequence[float] | None,
    baseline_quality: float | None,
    config: EvalConfig,
) -> ReliabilityResult:
    """Assemble the full reliability result for one window of calls.

    ``quality`` is the time-bucketed quality series aligned to the calls'
    tick span; when it is missing or too sparse for a correlation, rho falls
    back to 0 and the reason is recorded. The silent-degradation flag
    compares consecutive quality points by default, or the last point
    against the first when acc_delta_cumulative is set.
    """
    prr = partial_response_rate(calls)
    rho = 0.0
    fallback: str | None = None
    bucket_count = 0
    if quality is None or baseline_quality is None:
        fallback = "no quality signal in window"
    else:
        bucket_count = len(quality)
        try:
            rho = latency_quality_correlation(calls, quality, baseline_quality)
        except UndefinedStatisticError as exc:
            rho = 0.0
            fallback = str(exc)

    silent = False
    if quality is not None and len(quality) >= 2:
        if config.acc_delta_cumulative:
            deltas = [quality[-1] - quality[0]]
        else:
            deltas = [b - a for a, b in zip(quality, quality[1:])]
        silent = all(
            detect_silent_degradation(prr, delta, config) for delta in deltas
        )

    return ReliabilityResult(
        prr=prr,
        rho_lq=rho,
        score=tool_reliability_score(prr, rho),
        silent_degradation=silent,
        call_counts=count_states(calls),
        bucket_count=bucket_count,
        rho_fallback=fallback,
    )
