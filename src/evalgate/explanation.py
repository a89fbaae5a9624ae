"""Explanation validity via perturbation consistency.

Each claimed-important feature is set to its baseline value one at a time
(the rest untouched) and the absolute prediction change is recorded. The
attribution consistency score rescales the rank correlation between claimed
weights and measured impacts into [0, 1]. An explanation is decoupled when
rank agreement is low AND the top-claimed feature barely moves the
prediction: a correct decision wearing the wrong explanation.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any, NamedTuple, Protocol

from .model import AttributionCase, EvalConfig, EvaluationError, ValidationError, _echo
from .stats import spearman

_DETERMINISM_TOL = 1e-12


class ModelProbe(Protocol):
    """A deterministic decision function over named feature values."""

    def predict(self, feature_values: Mapping[str, float]) -> float: ...


class ProbeContext(NamedTuple):
    """Everything needed to perturb a recorded decision: the probe plus the
    original and baseline feature values it was called with; equal to a
    plain tuple of the same values."""

    probe: ModelProbe
    original_values: Mapping[str, float]
    baseline_values: Mapping[str, float]


class ExplanationResult(NamedTuple):
    """One attribution case's score and the impact of each claimed feature, by
    name in claimed order; equal to a plain tuple of the same values."""

    acs: float
    impacts: dict[str, float]
    top_feature: str
    top_impact: float
    decoupled: bool

    def metadata(self) -> dict[str, Any]:
        """Every field, in field order."""
        return self._asdict()


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
            raise ValidationError(f"baseline_values missing feature {_echo(name)}")
        if name not in original_values:
            raise ValidationError(f"original_values missing feature {_echo(name)}")

    def predict(values: dict[str, float], feature: str | None = None) -> float:
        try:
            return probe.predict(values)
        except Exception as exc:
            what = "on unperturbed input" if feature is None else f"perturbing {_echo(feature)}"
            raise EvaluationError(f"probe failed {what}: {exc}") from exc

    original = dict(original_values)
    base = predict(original)
    impacts: list[float] = []
    for name in case.feature_names:
        perturbed = dict(original)
        perturbed[name] = baseline_values[name]
        impacts.append(abs(base - predict(perturbed, name)))

    restored = predict(dict(original_values))
    if abs(restored - base) > _DETERMINISM_TOL:
        raise EvaluationError(
            f"probe is not deterministic: {base!r} vs {restored!r} on equal inputs"
        )
    return impacts


def attribution_consistency(claimed: Sequence[float], impacts: Sequence[float]) -> float:
    """(spearman(claimed, impacts) + 1) / 2, over two sequences of equal length >= 2."""
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
    acs = attribution_consistency(case.claimed_weights, impacts)
    top_impact = impacts[0]
    return ExplanationResult(
        acs=acs,
        impacts=dict(zip(case.feature_names, impacts)),
        top_feature=case.feature_names[0],
        top_impact=top_impact,
        decoupled=decoupling_flag(acs, top_impact, config),
    )
