"""Seeded trace generators for the four packaged failure scenarios.

Each generator is a pure function of its spec: the same (scenario, variant,
seed) always yields a byte-identical record stream. Randomness comes from
per-window Mersenne Twister substreams keyed by string-derived seeds, so
inserting or reordering a window never perturbs the others.

Scenarios:
  fm1  low-confidence pipeline steps with confident downstream steps
  fm2  tool partial responses rising while external accuracy stays flat
  fm3  output-category collapse under a flat accuracy signal
  fm5  attribution rankings decoupled from measured perturbation impact
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from typing import NamedTuple

from .model import (
    AttributionCase,
    OutputEvent,
    StepResult,
    ToolCallRecord,
    ToolCallState,
    TraceRecord,
)

FM1_VARIANTS: dict[str, tuple[float, ...]] = {
    "healthy": (0.90, 0.91, 0.89, 0.92, 0.91),
    "low1": (0.31, 0.87, 0.88, 0.90, 0.85),
    "low2": (0.88, 0.28, 0.86, 0.91, 0.89),
    "multi": (0.30, 0.88, 0.29, 0.90, 0.88),
}

_FM1_STEP_NAMES = ("resolve_entity", "fetch_profile", "score_risk", "apply_rules", "format_output")


class ScenarioSpec(NamedTuple):
    """A scenario, seed and variant ("" for the default); `generate` checks them."""

    scenario: str
    seed: int = 42
    variant: str = ""


def _rng(seed: int, *parts: object) -> random.Random:
    # str-seeded Random hashes via sha512: stable across processes and platforms
    return random.Random(":".join([str(seed), *map(str, parts)]))


# --- fm1: cascade -----------------------------------------------------------

def generate_fm1(variant: str) -> list[StepResult]:
    """Pinned 5-step confidence vectors, one per variant. No randomness."""
    return [
        StepResult(step_index=i + 1, step_name=_FM1_STEP_NAMES[i], confidence=c)
        for i, c in enumerate(FM1_VARIANTS[variant])
    ]


# --- fm2: tool reliability --------------------------------------------------

FM2_PARTIAL_COUNTS = (2, 11, 20, 29)           # of 50 calls per stage
FM2_ACCURACY = (0.87, 0.86, 0.85, 0.84)        # external accuracy per stage
FM2_RHO_TARGETS = (0.50, 0.59, 0.70, 0.53)     # latency-quality correlation per stage

_FM2_BUCKETS = 10
_FM2_CALLS_PER_BUCKET = 5
_FM2_STAGE_SPAN = 1000
_QUALITY_WIGGLE = 0.004


class Fm2Stage(NamedTuple):
    """One fm2 stage's calls and quality; equal to a plain tuple of the same values."""

    calls: tuple[ToolCallRecord, ...]
    quality: tuple[float, ...]
    baseline_quality: float
    accuracy: float
    quality_events: tuple[OutputEvent, ...] = ()


class Fm2Scenario(NamedTuple):
    """The fm2 stages in order; equal to a plain tuple of the same values."""

    stages: tuple[Fm2Stage, ...]

    @property
    def records(self) -> list[TraceRecord]:
        merged: list[TraceRecord] = []
        for stage in self.stages:
            merged.extend(stage.calls)
            merged.extend(stage.quality_events)
        return merged


def _standardize(values: list[float]) -> list[float]:
    n = len(values)
    mean = math.fsum(values) / n
    centered = [v - mean for v in values]
    sd = math.sqrt(math.fsum(c * c for c in centered) / n)
    return [c / sd for c in centered]


def _correlated_pattern(rho: float, n: int) -> tuple[list[float], list[float]]:
    """Two standardized n-vectors whose Pearson correlation is exactly rho.

    Built from a linear ramp and an alternating pattern orthogonalized
    against it, then mixed as rho * ramp + sqrt(1 - rho^2) * residual.
    """
    ramp = _standardize([float(i) for i in range(n)])
    alt = [1.0 if i % 2 == 0 else -1.0 for i in range(n)]
    proj = math.fsum(a * r for a, r in zip(alt, ramp)) / n
    residual = _standardize([a - proj * r for a, r in zip(alt, ramp)])
    mixed = [rho * r + math.sqrt(1.0 - rho * rho) * z for r, z in zip(ramp, residual)]
    return ramp, _standardize(mixed)


def generate_fm2(seed: int) -> Fm2Scenario:
    """Four 50-call stages with exact partial counts (2, 11, 20, 29).

    Per stage, latencies are constant within each of 10 tick buckets and the
    bucket quality series is constructed arithmetically so the stage-level
    latency-quality correlation hits its target exactly; only the placement
    of PARTIAL calls is sampled.
    """
    stages: list[Fm2Stage] = []
    for s in range(4):
        rng = _rng(seed, "fm2", s)
        partial_positions = set(rng.sample(range(50), FM2_PARTIAL_COUNTS[s]))
        ramp, drop = _correlated_pattern(FM2_RHO_TARGETS[s], _FM2_BUCKETS)
        accuracy = FM2_ACCURACY[s]
        base_latency = 150.0 + 50.0 * s

        calls: list[ToolCallRecord] = []
        quality: list[float] = []
        quality_events: list[OutputEvent] = []
        for b in range(_FM2_BUCKETS):
            latency = base_latency + 60.0 * ramp[b]
            quality_b = accuracy - _QUALITY_WIGGLE * drop[b]
            quality.append(quality_b)
            for j in range(_FM2_CALLS_PER_BUCKET):
                position = b * _FM2_CALLS_PER_BUCKET + j
                state = (
                    ToolCallState.PARTIAL
                    if position in partial_positions
                    else ToolCallState.SUCCESS
                )
                calls.append(
                    ToolCallRecord(
                        tool_name="profile_service",
                        state=state,
                        latency_ms=latency,
                        timestamp=s * _FM2_STAGE_SPAN + b * 100 + j * 20,
                    )
                )
            quality_events.append(
                OutputEvent(
                    category=f"decision_{b % 20:02d}",
                    session_id=f"stage{s + 1}",
                    timestamp=s * _FM2_STAGE_SPAN + b * 100 + 50,
                    quality_signal=quality_b,
                )
            )
        stages.append(
            Fm2Stage(
                calls=tuple(calls),
                quality=tuple(quality),
                baseline_quality=accuracy,
                accuracy=accuracy,
                quality_events=tuple(quality_events),
            )
        )
    return Fm2Scenario(stages=tuple(stages))


# --- fm3: distribution collapse ---------------------------------------------

FM3_WINDOW_QUALITY = (0.88, 0.87, 0.87, 0.86, 0.86)
FM3_WINDOW_CATEGORIES = (20, 20, 8, 8, 3)
_FM3_WINDOW_SIZE = 100
_FM3_TOP = "cat_01"
_FM3_FORCED_TAIL = 20
_FM3_W5_TOP_WEIGHT = 0.60
_FM3_W3_TOP_WEIGHT = 0.50


def _fm3_window_categories(window: int, rng: random.Random) -> list[str]:
    """Category sequence for one 100-event window.

    Every in-universe category appears at least once (coverage block first),
    so per-window diversity is exact. W3 skews half its draws to the top
    category; W5 samples with top weight 0.60 and forces the final 20 events
    to the top category.
    """
    k = FM3_WINDOW_CATEGORIES[window]
    universe = [f"cat_{i + 1:02d}" for i in range(k)]
    coverage = list(universe)
    rng.shuffle(coverage)

    remaining = _FM3_WINDOW_SIZE - k
    if window == 4:
        remaining -= _FM3_FORCED_TAIL
        weights = [_FM3_W5_TOP_WEIGHT] + [(1 - _FM3_W5_TOP_WEIGHT) / (k - 1)] * (k - 1)
    elif window == 2:
        weights = [_FM3_W3_TOP_WEIGHT] + [(1 - _FM3_W3_TOP_WEIGHT) / (k - 1)] * (k - 1)
    else:
        weights = [1.0 / k] * k
    sampled = rng.choices(universe, weights=weights, k=remaining)

    sequence = coverage + sampled
    if window == 4:
        sequence += [_FM3_TOP] * _FM3_FORCED_TAIL
    return sequence


def generate_fm3(seed: int) -> list[OutputEvent]:
    """Five consecutive 100-event windows narrowing from 20 to 3 categories.

    The quality signal is pinned per window to (0.88, 0.87, 0.87, 0.86, 0.86)
    regardless of seed.
    """
    events: list[OutputEvent] = []
    tick = 0
    for w in range(5):
        rng = _rng(seed, "fm3", w)
        for category in _fm3_window_categories(w, rng):
            tick += 1
            events.append(
                OutputEvent(
                    category=category,
                    session_id=f"w{w + 1}",
                    timestamp=tick,
                    quality_signal=FM3_WINDOW_QUALITY[w],
                )
            )
    return events


# --- fm5: explanation decoupling --------------------------------------------

FM5_TRUE_WEIGHTS: dict[str, float] = {
    "transaction_velocity": 0.55,
    "device_age_days": 0.35,
    "geography_risk_score": 0.05,
}
FM5_ORIGINAL_VALUES: dict[str, float] = {
    "transaction_velocity": 0.82,
    "device_age_days": 0.64,
    "geography_risk_score": 0.72,
}
FM5_BASELINE_VALUES: dict[str, float] = {name: 0.0 for name in FM5_TRUE_WEIGHTS}
_FM5_BIAS = 0.05

_FM5_CLAIMED_ORDER: dict[str, tuple[str, ...]] = {
    "causal": ("transaction_velocity", "device_age_days", "geography_risk_score"),
    "proxy_first": ("geography_risk_score", "transaction_velocity", "device_age_days"),
    "proxy_second": ("transaction_velocity", "geography_risk_score", "device_age_days"),
}


class LinearProbe:
    """Fixed linear decision function, clipped to [0, 1]."""

    def __init__(self, weights: Mapping[str, float], bias: float = 0.0):
        self.weights = dict(weights)
        self.bias = bias

    def predict(self, feature_values: Mapping[str, float]) -> float:
        raw = self.bias + math.fsum(
            w * feature_values[name] for name, w in self.weights.items()
        )
        return min(1.0, max(0.0, raw))


class Fm5Case(NamedTuple):
    """One fm5 case with its probe and values; equal to a plain tuple of the same values."""

    case: AttributionCase
    probe: LinearProbe
    original_values: dict[str, float]
    baseline_values: dict[str, float]


def reference_probe() -> LinearProbe:
    """The risk probe all fm5 variants share."""
    return LinearProbe(FM5_TRUE_WEIGHTS, bias=_FM5_BIAS)


def generate_fm5(variant: str, seed: int, noise_scale: float = 0.02) -> Fm5Case:
    """One attribution case over the shared linear risk probe.

    The probe and its input never change across variants, so the decision
    value is identical for all three; only the claimed ranking differs.
    Claimed weights get small seeded observation noise that preserves the
    variant's ranking. noise_scale=0 gives the noiseless case.
    """
    probe = reference_probe()
    decision_value = probe.predict(FM5_ORIGINAL_VALUES)

    base_weights = sorted(FM5_TRUE_WEIGHTS.values(), reverse=True)
    if noise_scale > 0:
        rng = _rng(seed, "fm5", variant)
        noisy = [max(0.0, w + rng.uniform(-noise_scale, noise_scale)) for w in base_weights]
        claimed_weights = tuple(sorted(noisy, reverse=True))
    else:
        claimed_weights = tuple(base_weights)

    return Fm5Case(
        case=AttributionCase(
            feature_names=_FM5_CLAIMED_ORDER[variant],
            claimed_weights=claimed_weights,
            decision_value=decision_value,
        ),
        probe=probe,
        original_values=dict(FM5_ORIGINAL_VALUES),
        baseline_values=dict(FM5_BASELINE_VALUES),
    )


# --- spec dispatch -----------------------------------------------------------

# Each scenario's variants, its default first; "" alone means it takes none.
SCENARIO_VARIANTS = {"fm1": tuple(FM1_VARIANTS), "fm2": ("",), "fm3": ("",),
                     "fm5": tuple(_FM5_CLAIMED_ORDER)}
SCENARIOS = tuple(SCENARIO_VARIANTS)


def generate(spec: ScenarioSpec) -> list[TraceRecord]:
    """Flat trace records for a scenario spec, ready for serialization."""
    scenario, seed, variant = spec
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    variants = SCENARIO_VARIANTS[scenario]
    variant = variant or variants[0]
    if variant not in variants:
        if not variants[0]:
            raise ValueError(f"scenario {scenario} takes no variant")
        raise ValueError(f"unknown {scenario} variant {variant!r}; expected one of {variants}")
    if scenario == "fm1":
        return generate_fm1(variant)
    if scenario == "fm2":
        return generate_fm2(seed).records
    if scenario == "fm3":
        return generate_fm3(seed)
    return [generate_fm5(variant, seed).case]
