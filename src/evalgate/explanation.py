"""Explanation validity via perturbation consistency.

Each claimed-important feature is set to its baseline value one at a time
(the rest untouched) and the absolute prediction change is recorded. The
attribution consistency score rescales the rank correlation between claimed
weights and measured impacts into [0, 1]. An explanation is decoupled when
rank agreement is low AND the top-claimed feature barely moves the
prediction: a correct decision wearing the wrong explanation.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Protocol

from .model import AttributionCase, EvalConfig, EvaluationError, ValidationError
from .stats import spearman

_DETERMINISM_TOL = 1e-12


class ModelProbe(Protocol):
    """A deterministic decision function over named feature values."""

    def predict(self, feature_values: Mapping[str, float]) -> float: ...


@dataclass(frozen=True)
class ProbeContext:
    """Everything needed to perturb a recorded decision: the probe plus the
    original and baseline feature values it was called with."""

    probe: ModelProbe
    original_values: Mapping[str, float]
    baseline_values: Mapping[str, float]


@dataclass(frozen=True, slots=True)
class ExplanationResult:
    acs: float
    impacts: tuple[float, ...]
    top_impact: float
    decoupled: bool
    feature_names: tuple[str, ...]

    def metadata(self) -> dict[str, Any]:
        return {
            "acs": self.acs,
            "impacts": {name: delta for name, delta in zip(self.feature_names, self.impacts)},
            "top_feature": self.feature_names[0],
            "top_impact": self.top_impact,
            "decoupled": self.decoupled,
        }


def perturbation_impacts(
    probe: ModelProbe,
    case: AttributionCase,
    baseline_values: Mapping[str, float],
    original_values: Mapping[str, float],
) -> list[float]:
    """Measure |prediction change| per feature, in the case's claimed order.

    Features are perturbed one at a time; the original input is rebuilt
    between perturbations. The probe is re-checked on the unperturbed input
    afterwards to enforce the determinism contract.
    """
    for name in case.feature_names:
        if name not in baseline_values:
            raise ValidationError(f"baseline_values missing feature {name!r}")
        if name not in original_values:
            raise ValidationError(f"original_values missing feature {name!r}")

    original = dict(original_values)
    try:
        base = probe.predict(original)
    except Exception as exc:
        raise EvaluationError(f"probe failed on unperturbed input: {exc}") from exc

    impacts: list[float] = []
    for name in case.feature_names:
        perturbed = dict(original)
        perturbed[name] = baseline_values[name]
        try:
            moved = probe.predict(perturbed)
        except Exception as exc:
            raise EvaluationError(f"probe failed perturbing {name!r}: {exc}") from exc
        impacts.append(abs(base - moved))

    restored = probe.predict(dict(original_values))
    if abs(restored - base) > _DETERMINISM_TOL:
        raise EvaluationError(
            f"probe is not deterministic: {base!r} vs {restored!r} on equal inputs"
        )
    return impacts


def attribution_consistency(claimed: list[float], impacts: list[float]) -> float:
    """(spearman(claimed, impacts) + 1) / 2, over two lists of equal length >= 2."""
    return (spearman(claimed, impacts) + 1.0) / 2.0


def decoupling_flag(acs: float, top_impact: float, config: EvalConfig) -> bool:
    """True only when BOTH hold: acs < theta_acs and top_impact < delta_min."""
    return acs < config.theta_acs and top_impact < config.delta_min


def evaluate_explanation(
    probe: ModelProbe,
    case: AttributionCase,
    baseline_values: Mapping[str, float],
    original_values: Mapping[str, float],
    config: EvalConfig,
) -> ExplanationResult:
    impacts = perturbation_impacts(probe, case, baseline_values, original_values)
    acs = attribution_consistency(list(case.claimed_weights), impacts)
    top_impact = impacts[0]
    return ExplanationResult(
        acs=acs,
        impacts=tuple(impacts),
        top_impact=top_impact,
        decoupled=decoupling_flag(acs, top_impact, config),
        feature_names=case.feature_names,
    )
