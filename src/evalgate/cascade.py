"""Cascade uncertainty: flags pipelines that build confidently on a weak step.

A propagation failure is the first non-terminal step whose confidence falls
below tau_u. The coherence illusion score (CIS) is the mean confidence of
every step after that point: high values mean downstream steps kept building
on a premise the pipeline itself reported as uncertain.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any, NamedTuple

from .model import EvalConfig, StepResult
from .stats import UndefinedStatisticError


class CascadeResult(NamedTuple):
    """One pipeline's score and signals; equal to a plain tuple of the same values."""

    mean_confidence: float
    cis: float
    score: float
    raw_score: float
    propagation_failure: bool
    failure_index: int | None
    step_confidences: tuple[float, ...]

    def metadata(self) -> dict[str, Any]:
        """Not _asdict(): the entry drops three fields and makes step_confidences a list."""
        return {
            "mean_confidence": self.mean_confidence,
            "cis": self.cis,
            "failure_index": self.failure_index,
            "step_confidences": list(self.step_confidences),
        }


def evaluate_cascade(steps: Sequence[StepResult], config: EvalConfig) -> CascadeResult:
    """Score one pipeline trace.

    score = mean_confidence - lambda * CIS when a propagation failure exists,
    else mean_confidence; the reported score is clamped to [0, 1] and the
    unclamped value is kept in raw_score. With no failure, CIS is defined
    as 0 so a healthy pipeline scores its mean confidence.
    """
    n = len(steps)
    if n < 2:
        raise UndefinedStatisticError(f"cascade evaluation needs >= 2 steps, got {n}")
    confidences = tuple(step.confidence for step in steps)

    mean_confidence = math.fsum(confidences) / n
    failure_index: int | None = None
    for i in range(n - 1):  # terminal step cannot propagate
        if confidences[i] < config.tau_u:
            failure_index = i + 1
            break

    if failure_index is None:
        cis = 0.0
        raw_score = mean_confidence
    else:
        downstream = confidences[failure_index:]
        cis = math.fsum(downstream) / len(downstream)
        raw_score = mean_confidence - config.lambda_ * cis

    return CascadeResult(
        mean_confidence=mean_confidence,
        cis=cis,
        score=min(1.0, max(0.0, raw_score)),
        raw_score=raw_score,
        propagation_failure=failure_index is not None,
        failure_index=failure_index,
        step_confidences=confidences,
    )
