"""Perturbation consistency checks for decision explanations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalgate.explanation import (
    attribution_consistency,
    decoupling_flag,
    evaluate_explanation,
    perturbation_impacts,
)
from evalgate.model import AttributionCase, EvalConfig, EvaluationError, ValidationError
from evalgate.simulate import LinearProbe

CFG = EvalConfig()

# the worked example: 0.55*velocity + 0.35*device + 0.05*geo + 0.05 bias
PROBE = LinearProbe(
    {"velocity": 0.55, "device": 0.35, "geo": 0.05}, bias=0.05
)
ONES = {"velocity": 1.0, "device": 1.0, "geo": 1.0}
ZEROS = {"velocity": 0.0, "device": 0.0, "geo": 0.0}


def case(order: tuple[str, ...], weights: tuple[float, ...] = (0.55, 0.35, 0.05)) -> AttributionCase:
    return AttributionCase(order, weights, PROBE.predict(ONES))


def test_linear_probe_impacts():
    impacts = perturbation_impacts(PROBE, case(("velocity", "device", "geo")), ZEROS, ONES)
    assert impacts == pytest.approx([0.55, 0.35, 0.05], abs=1e-12)


def test_inert_feature_has_zero_impact():
    probe = LinearProbe({"a": 0.5, "b": 0.0}, bias=0.1)
    impacts = perturbation_impacts(
        probe,
        AttributionCase(("a", "b"), (0.9, 0.1), 0.6),
        {"a": 0.0, "b": 0.0},
        {"a": 1.0, "b": 1.0},
    )
    assert impacts[1] == 0.0


def test_restoration_identity():
    before = PROBE.predict(ONES)
    perturbation_impacts(PROBE, case(("geo", "device", "velocity")), ZEROS, ONES)
    assert PROBE.predict(ONES) == before


def test_impacts_require_covering_value_maps():
    with pytest.raises(ValidationError, match="baseline_values"):
        perturbation_impacts(PROBE, case(("velocity", "device", "geo")), {"velocity": 0.0}, ONES)
    with pytest.raises(ValidationError, match="original_values"):
        perturbation_impacts(PROBE, case(("velocity", "device", "geo")), ZEROS, {"velocity": 1.0})


def test_probe_failure_names_feature():
    class Broken:
        def predict(self, values):
            if values["device"] == 0.0:
                raise RuntimeError("boom")
            return 0.5

    with pytest.raises(EvaluationError, match="device"):
        perturbation_impacts(Broken(), case(("velocity", "device", "geo")), ZEROS, ONES)


def test_probe_failure_on_the_restore_call_is_an_evaluation_error():
    class FailsOnRestore:
        def __init__(self):
            self.calls = 0

        def predict(self, values):
            self.calls += 1
            if self.calls == 5:  # the unperturbed call, 3 perturbations, then the restore
                raise RuntimeError("gone")
            return 0.5

    with pytest.raises(EvaluationError) as info:
        perturbation_impacts(FailsOnRestore(), case(("velocity", "device", "geo")), ZEROS, ONES)
    assert str(info.value) == "probe failed on unperturbed input: gone"


def test_nondeterministic_probe_is_rejected():
    class Drifty:
        def __init__(self):
            self.n = 0

        def predict(self, values):
            self.n += 1
            return 0.5 + self.n * 1e-6

    with pytest.raises(EvaluationError, match="deterministic"):
        perturbation_impacts(Drifty(), case(("velocity", "device", "geo")), ZEROS, ONES)


def test_attribution_consistency_endpoints():
    assert attribution_consistency([0.9, 0.5, 0.1], [0.8, 0.4, 0.2]) == 1.0
    assert attribution_consistency([0.9, 0.5, 0.1], [0.2, 0.4, 0.8]) == 0.0


def test_decoupling_needs_both_conditions():
    assert decoupling_flag(0.357, 0.036, CFG)
    assert not decoupling_flag(0.907, 0.451, CFG)
    assert not decoupling_flag(0.3, 0.2, CFG)     # low agreement, strong top impact
    assert not decoupling_flag(0.9, 0.001, CFG)   # weak top impact, ranks agree
    # boundary: strict comparisons on both sides
    assert not decoupling_flag(0.5, 0.01, CFG)
    assert not decoupling_flag(0.3, 0.05, CFG)


def test_causally_ordered_linear_case_is_clean():
    result = evaluate_explanation(PROBE, case(("velocity", "device", "geo")), ZEROS, ONES, CFG)
    assert result.acs == 1.0
    assert not result.decoupled
    assert result.top_impact == pytest.approx(0.55, abs=1e-12)


def test_metadata_shape():
    result = evaluate_explanation(PROBE, case(("geo", "velocity", "device")), ZEROS, ONES, CFG)
    meta = result.metadata()
    assert set(meta) == {"acs", "impacts", "top_feature", "top_impact", "decoupled"}
    assert meta["top_feature"] == "geo"
    assert meta["impacts"]["velocity"] == pytest.approx(0.55, abs=1e-12)


@settings(max_examples=500, deadline=None)
@given(st.floats(0.001, 100, allow_nan=False))
def test_acs_invariant_under_weight_rescaling(scale):
    claimed = [0.9, 0.4, 0.2, 0.1]
    impacts = [0.1, 0.5, 0.3, 0.01]
    assert attribution_consistency([scale * w for w in claimed], impacts) == \
        attribution_consistency(claimed, impacts)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 1000), min_size=2, max_size=6, unique=True))
def test_noiseless_linear_probe_rank_matches_weight_rank(raw_weights):
    # scaled so the probe never clips: impacts stay exactly linear
    scale = 1.0 / (sum(raw_weights) * 2)
    weights = [w * scale for w in raw_weights]
    names = tuple(f"f{i}" for i in range(len(weights)))
    probe = LinearProbe(dict(zip(names, weights)))
    ordered = sorted(zip(names, weights), key=lambda nw: -nw[1])
    attribution = AttributionCase(
        tuple(n for n, _ in ordered),
        tuple(w for _, w in ordered),
        probe.predict({n: 1.0 for n in names}),
    )
    result = evaluate_explanation(
        probe,
        attribution,
        {n: 0.0 for n in names},
        {n: 1.0 for n in names},
        CFG,
    )
    assert result.acs == 1.0
    assert not result.decoupled
