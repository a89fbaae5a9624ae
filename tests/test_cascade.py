"""Cascade uncertainty metric: pinned pipeline vectors and structural properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalgate.cascade import InsufficientTraceError, evaluate_cascade
from evalgate.model import EvalConfig, StepResult

CFG = EvalConfig()


def steps(*confidences: float) -> list[StepResult]:
    return [
        StepResult(step_index=i + 1, step_name=f"step_{i + 1}", confidence=c)
        for i, c in enumerate(confidences)
    ]


def test_healthy_pipeline_scores_its_mean():
    result = evaluate_cascade(steps(0.90, 0.91, 0.89, 0.92, 0.91), CFG)
    assert result.mean_confidence == pytest.approx(0.906, abs=1e-12)
    assert not result.propagation_failure
    assert result.failure_index is None
    assert result.cis == 0.0
    assert result.score == pytest.approx(0.906, abs=1e-12)


def test_low_first_step():
    result = evaluate_cascade(steps(0.31, 0.87, 0.88, 0.90, 0.85), CFG)
    assert result.mean_confidence == pytest.approx(0.762, abs=1e-12)
    assert result.failure_index == 1
    assert result.cis == pytest.approx(0.875, abs=1e-12)
    assert result.raw_score == pytest.approx(0.762 - 0.5 * 0.875, abs=1e-12)
    assert result.score == pytest.approx(0.3245, abs=1e-12)


def test_low_second_step():
    result = evaluate_cascade(steps(0.88, 0.28, 0.86, 0.91, 0.89), CFG)
    assert result.mean_confidence == pytest.approx(0.764, abs=1e-12)
    assert result.failure_index == 2
    assert result.cis == pytest.approx((0.86 + 0.91 + 0.89) / 3, abs=1e-12)
    assert round(result.cis, 3) == 0.887


def test_multi_failure_uses_first_failing_step():
    result = evaluate_cascade(steps(0.30, 0.88, 0.29, 0.90, 0.88), CFG)
    assert result.mean_confidence == pytest.approx(0.650, abs=1e-12)
    assert result.failure_index == 1
    assert result.cis == pytest.approx(0.7375, abs=1e-12)


def test_terminal_step_cannot_propagate():
    result = evaluate_cascade(steps(0.9, 0.92, 0.95, 0.91, 0.10), CFG)
    assert not result.propagation_failure
    assert result.cis == 0.0
    assert result.score == result.mean_confidence


def test_needs_at_least_two_steps():
    with pytest.raises(InsufficientTraceError):
        evaluate_cascade(steps(0.9), CFG)
    with pytest.raises(InsufficientTraceError):
        evaluate_cascade([], CFG)


def test_metadata_keys():
    result = evaluate_cascade(steps(0.31, 0.9, 0.9), CFG)
    assert set(result.metadata()) == {
        "mean_confidence", "cis", "failure_index", "step_confidences",
    }
    assert result.metadata()["step_confidences"] == [0.31, 0.9, 0.9]


confidences_strategy = st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=12)


@settings(max_examples=500, deadline=None)
@given(confidences_strategy)
def test_no_failure_when_all_above_threshold(values):
    values = [max(v, 0.5) for v in values]
    result = evaluate_cascade(steps(*values), CFG)
    assert not result.propagation_failure
    assert result.cis == 0.0
    assert result.score == result.mean_confidence


@settings(max_examples=500, deadline=None)
@given(confidences_strategy)
def test_score_never_exceeds_mean(values):
    result = evaluate_cascade(steps(*values), CFG)
    assert result.raw_score <= result.mean_confidence + 1e-15
    assert 0.0 <= result.score <= 1.0


@settings(max_examples=500, deadline=None)
@given(confidences_strategy)
def test_failure_index_is_first_qualifying(values):
    result = evaluate_cascade(steps(*values), CFG)
    below = [i + 1 for i, v in enumerate(values[:-1]) if v < CFG.tau_u]
    assert result.failure_index == (min(below) if below else None)


@settings(max_examples=300, deadline=None)
@given(confidences_strategy, st.floats(0.5, 1.0, allow_nan=False))
def test_prepending_lower_step_moves_failure_left_or_keeps(values, high):
    base = evaluate_cascade(steps(*values), CFG)
    shifted = evaluate_cascade(steps(0.1, *values), CFG)
    assert shifted.failure_index == 1
    if base.failure_index is not None:
        assert shifted.failure_index <= base.failure_index + 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.5, 1.0, allow_nan=False), min_size=2, max_size=8))
def test_cis_depends_only_on_downstream_steps(tail):
    a = evaluate_cascade(steps(0.2, *tail), CFG)
    b = evaluate_cascade(steps(0.4, *tail), CFG)  # same failure location
    assert a.failure_index == b.failure_index == 1
    assert a.cis == b.cis
