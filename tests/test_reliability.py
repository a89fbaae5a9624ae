"""Tool reliability: partial rates, latency-quality coupling, silent degradation."""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from evalgate.model import MAX_TICK, EvalConfig, ToolCallRecord, ToolCallState
from evalgate.reliability import (
    bucket_indices,
    count_states,
    detect_silent_degradation,
    evaluate_reliability,
    latency_quality_correlation,
    partial_response_rate,
    percentile_nearest_rank,
    tool_reliability_score,
)
from evalgate.simulate import generate_fm2
from evalgate.stats import UndefinedStatisticError

CFG = EvalConfig()


def call(state: ToolCallState, latency: float = 100.0, ts: int = 0) -> ToolCallRecord:
    return ToolCallRecord("svc", state, latency, ts)


def columns(calls: list[ToolCallRecord]) -> tuple[list[int], list[float], dict[str, int]]:
    """The calls as evaluate_reliability takes them: ticks, latencies, state counts."""
    return [c.timestamp for c in calls], [c.latency_ms for c in calls], count_states(calls)


def calls_with_partials(total: int, partial: int) -> list[ToolCallRecord]:
    return [
        call(ToolCallState.PARTIAL if i < partial else ToolCallState.SUCCESS, ts=i)
        for i in range(total)
    ]


def test_partial_response_rate_values():
    assert partial_response_rate(calls_with_partials(50, 11)) == pytest.approx(0.220, abs=1e-15)
    assert partial_response_rate(calls_with_partials(50, 29)) == pytest.approx(0.580, abs=1e-15)
    assert partial_response_rate(calls_with_partials(10, 0)) == 0.0


def test_partial_rate_ignores_failed_calls():
    mixed = calls_with_partials(8, 2) + [call(ToolCallState.FAILED, ts=99)]
    assert partial_response_rate(mixed) == pytest.approx(2 / 9)


def test_tool_reliability_score_values():
    assert tool_reliability_score(0.0, 0.9) == 1.0
    assert tool_reliability_score(0.2, 0.5) == pytest.approx(0.70, abs=1e-12)
    assert tool_reliability_score(0.1, -0.3) == pytest.approx(0.90, abs=1e-12)
    # clamp floor: prr 1.0 with positive rho would go negative
    assert tool_reliability_score(1.0, 0.8) == 0.0


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile_nearest_rank(values, 0.95) == 95
    assert percentile_nearest_rank([7.0], 0.95) == 7.0
    assert percentile_nearest_rank([3.0, 1.0, 2.0, 4.0, 5.0], 0.95) == 5.0


def test_bucket_indices_equal_width():
    ticks = [0, 99, 100, 250, 999]
    assert bucket_indices(ticks, 10) == [0, 0, 1, 2, 9]
    assert bucket_indices([5, 5, 5], 10) == [0, 0, 0]


# Where drawn ticks cluster: zero, the int64 edges and the ends of the tick range.
TICK_CENTRES = [0, 2**63 - 1, 2**63, -2**63, -2**63 - 1, MAX_TICK, -MAX_TICK]


@st.composite
def bucket_inputs(draw):
    """Ticks near one centre (so a span can be narrower than the bucket count,
    and several buckets share a least tick) or anywhere in the tick range, in
    drawn order with runs of equal ticks, and explicit bounds or none."""
    centre = draw(st.sampled_from(TICK_CENTRES))
    tick = st.integers(-12, 12).map(lambda k: max(-MAX_TICK, min(MAX_TICK, centre + k)))
    if draw(st.booleans()):
        tick |= st.sampled_from(TICK_CENTRES) | st.integers(-MAX_TICK, MAX_TICK)
    runs = draw(st.lists(st.tuples(tick, st.integers(1, 4)), min_size=1, max_size=12))
    ticks = [t for t, repeat in runs for _ in range(repeat)]
    bounds = draw(st.none() | st.tuples(tick, tick))  # hi <= lo among them
    return ticks, draw(st.integers(1, 40)), bounds


@settings(max_examples=400, deadline=None, derandomize=True)
@given(inputs=bucket_inputs())
def test_bucket_indices_match_the_per_tick_rule(inputs):
    ticks, bucket_count, bounds = inputs
    lo, hi = bounds or (None, None)
    expected = reference.bucket_indices(ticks, bucket_count, lo, hi)
    assert bucket_indices(ticks, bucket_count, lo, hi) == expected
    if all(-2**63 <= t < 2**63 for t in ticks):  # TOOL's packed tick column
        assert bucket_indices(array("q", ticks), bucket_count, lo, hi) == expected


def test_correlation_constant_latency_is_zero():
    calls = [call(ToolCallState.SUCCESS, latency=100.0, ts=t) for t in range(100)]
    quality = [0.9 - 0.01 * b for b in range(10)]
    assert latency_quality_correlation(calls, quality, 0.9) == 0.0


def test_correlation_rising_latency_falling_quality_is_one():
    calls = [call(ToolCallState.SUCCESS, latency=100.0 + t, ts=t) for t in range(100)]
    quality = [0.9 - 0.01 * b for b in range(10)]
    # p95 strictly increasing, quality drop strictly increasing, exactly affine
    assert latency_quality_correlation(calls, quality, 0.9) == 1.0


def test_correlation_needs_three_buckets():
    calls = [call(ToolCallState.SUCCESS, ts=t) for t in range(10)]
    with pytest.raises(UndefinedStatisticError):
        latency_quality_correlation(calls, [0.9, 0.8], 0.9)
    same_tick = [call(ToolCallState.SUCCESS, ts=5) for _ in range(10)]
    with pytest.raises(UndefinedStatisticError):
        latency_quality_correlation(same_tick, [0.9, 0.8, 0.7, 0.6], 0.9)


def test_silent_degradation_thresholds():
    assert not detect_silent_degradation(0.040, 0.00, CFG)
    assert detect_silent_degradation(0.220, -0.01, CFG)
    assert not detect_silent_degradation(0.580, -0.03, CFG)
    wide = EvalConfig(acc_stability_band=0.03)
    assert detect_silent_degradation(0.580, -0.03, wide)
    # exactly at theta_prr does not flag; crossing does
    assert not detect_silent_degradation(0.20, 0.0, CFG)
    assert detect_silent_degradation(0.2000001, 0.0, CFG)


def test_stage3_correlation_matches_solved_target():
    stage = generate_fm2(42).stages[2]
    rho = latency_quality_correlation(stage.calls, stage.quality, stage.baseline_quality)
    assert rho == pytest.approx(0.70, abs=0.05)
    prr = partial_response_rate(stage.calls)
    assert tool_reliability_score(prr, rho) == pytest.approx(0.320, abs=0.05)


def test_fm2_signature_flags_at_first_crossing_and_never_earlier():
    scenario = generate_fm2(7)
    flags = []
    previous = None
    for stage in scenario.stages:
        prr = partial_response_rate(stage.calls)
        delta = 0.0 if previous is None else stage.accuracy - previous
        flags.append(detect_silent_degradation(prr, delta, CFG))
        previous = stage.accuracy
    assert flags == [False, True, True, True]
    total_move = abs(scenario.stages[-1].accuracy - scenario.stages[0].accuracy)
    assert total_move <= 0.03 + 1e-12


def test_evaluate_reliability_assembles_metadata():
    stage = generate_fm2(42).stages[1]
    result = evaluate_reliability(*columns(stage.calls), stage.quality, CFG)
    assert result.prr == pytest.approx(0.220, abs=1e-15)
    assert result.call_counts == {"SUCCESS": 39, "PARTIAL": 11, "FAILED": 0}
    assert result.score == pytest.approx(
        1 - result.prr * (1 + max(result.rho_lq, 0.0)), abs=1e-15
    )
    meta = result.metadata()
    assert {"prr", "rho_lq", "bucket_count", "call_counts", "silent_degradation"} <= set(meta)


def test_evaluate_reliability_without_quality_falls_back():
    calls = calls_with_partials(20, 5)
    result = evaluate_reliability(*columns(calls), None, CFG)
    assert result.rho_lq == 0.0
    assert result.rho_fallback is not None
    assert not result.silent_degradation


def test_evaluate_reliability_cumulative_mode():
    calls = calls_with_partials(50, 15)  # prr 0.30
    quality = [0.87, 0.868, 0.865, 0.862, 0.86, 0.858, 0.855, 0.852, 0.85, 0.84]
    stage_cfg = EvalConfig()
    cumulative_cfg = EvalConfig(acc_delta_cumulative=True)
    stepwise = evaluate_reliability(*columns(calls), quality, stage_cfg)
    cumulative = evaluate_reliability(*columns(calls), quality, cumulative_cfg)
    # every step move is inside the band, but first-to-last is not
    assert stepwise.silent_degradation
    assert not cumulative.silent_degradation


@settings(max_examples=500, deadline=None)
@given(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False),
       st.floats(-1, 1, allow_nan=False))
def test_score_monotone_in_prr(prr_a, prr_b, rho):
    lo, hi = sorted((prr_a, prr_b))
    assert tool_reliability_score(hi, rho) <= tool_reliability_score(lo, rho) + 1e-15


@settings(max_examples=500, deadline=None)
@given(st.floats(0.01, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False),
       st.floats(-1, 1, allow_nan=False))
def test_score_monotone_in_rho_for_positive_prr(prr, rho_a, rho_b):
    lo, hi = sorted((rho_a, rho_b))
    assert tool_reliability_score(prr, hi) <= tool_reliability_score(prr, lo) + 1e-15


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(0, 60), st.integers(1, 60), st.integers(0, 60))
def test_prr_concatenation_is_count_weighted_mean(n1, p1, n2, p2):
    p1, p2 = min(p1, n1), min(p2, n2)
    a = calls_with_partials(n1, p1)
    b = calls_with_partials(n2, p2)
    combined = partial_response_rate(a + b)
    weighted = (partial_response_rate(a) * n1 + partial_response_rate(b) * n2) / (n1 + n2)
    assert combined == pytest.approx(weighted, abs=1e-12)
