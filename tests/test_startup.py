"""What every ``evalgate`` process pays to start and to exit: the classes its
import decorates, the collector state at process entry, and the value
objects declared as NamedTuples instead."""

from __future__ import annotations

import gc
import subprocess
import sys
from pathlib import Path

import pytest

from evalgate.cascade import CascadeResult
from evalgate.cli import main
from evalgate.consistency import ConsistencyResult
from evalgate.distribution import DistributionSnapshot
from evalgate.explanation import ExplanationResult, ProbeContext
from evalgate.model import EvalReport, MetricResult
from evalgate.reliability import ReliabilityResult
from evalgate.simulate import (
    FM5_BASELINE_VALUES,
    FM5_ORIGINAL_VALUES,
    Fm2Scenario,
    Fm2Stage,
    Fm5Case,
    ScenarioSpec,
    reference_probe,
)

SOURCE = Path(__file__).resolve().parent.parent / "src"

# The only dataclasses: the config, which carries the config schema and
# checks it in __post_init__, and StreamDiagnostics, which the evaluator fills
# in as it reads. The trace records are slotted classes whose __init__
# declares their fields, and every other value object is a NamedTuple; both
# are declared without generating and compiling code in each process.
DATACLASSES = {"evalgate.evaluator.StreamDiagnostics", "evalgate.model.EvalConfig"}


def run_isolated(code: str) -> str:
    argv = [sys.executable, "-I", "-S", "-c",
            f"import sys; sys.path.insert(0, {str(SOURCE)!r}); {code}"]
    return subprocess.run(argv, capture_output=True, text=True, check=True).stdout


def test_importing_the_cli_declares_only_the_schema_dataclasses():
    census = (
        "import dataclasses, evalgate.cli; "
        "print('\\n'.join(f'{c.__module__}.{c.__qualname__}' "
        "for n, m in list(sys.modules.items()) if n.startswith('evalgate') "
        "for c in vars(m).values() "
        "if isinstance(c, type) and c.__module__ == n and dataclasses.is_dataclass(c)))"
    )
    assert set(run_isolated(census).split()) == DATACLASSES


def test_process_entry_freezes_the_start_up_heap(tmp_path):
    out = tmp_path / "t.jsonl"
    entry = (
        "import gc; from evalgate.cli import main; "
        f"sys.argv = ['evalgate', 'simulate', '--scenario', 'fm1', '--output', {str(out)!r}]; "
        "code = main(); print(code, gc.get_freeze_count())"
    )
    code, frozen = run_isolated(entry).split()
    assert code == "0" and int(frozen) > 0
    assert out.read_text().count("\n") == 5


def test_in_process_main_leaves_the_collector_alone(tmp_path):
    before = gc.get_freeze_count()
    out = tmp_path / "t.jsonl"
    assert main(["simulate", "--scenario", "fm1", "--output", str(out)]) == 0
    assert gc.get_freeze_count() == before


def _value_objects():
    context = ProbeContext(probe=reference_probe(), original_values=FM5_ORIGINAL_VALUES,
                           baseline_values=FM5_BASELINE_VALUES)
    stage = Fm2Stage(calls=(), quality=(0.5,), baseline_quality=0.5, accuracy=0.8)
    return [
        CascadeResult(mean_confidence=0.9, cis=0.0, score=0.9, raw_score=0.9,
                      propagation_failure=False, failure_index=None, step_confidences=(0.9,)),
        ReliabilityResult(prr=0.1, rho_lq=0.2, bucket_count=10, call_counts={"SUCCESS": 9},
                          silent_degradation=False, score=0.8),
        DistributionSnapshot(entropy=1.0, diversity=0.5, repeat_rate=0.5, window_fill=4,
                             distinct_categories=2, mean_quality=None, score=0.7),
        ExplanationResult(acs=1.0, impacts={"a": 0.3}, top_feature="a", top_impact=0.3,
                          decoupled=False),
        ConsistencyResult(agreement_rate=1.0, mean_similarity=0.9, pair_count=2, flagged=False,
                          score=0.9),
        context,
        MetricResult(score=0.5, confidence=1.0, passed=False, metadata={}),
        EvalReport(per_dimension={}, overall_score=1.0, passed=True),
        ScenarioSpec(scenario="fm1", seed=7, variant="low1"),
        stage,
        Fm2Scenario(stages=(stage,)),
        Fm5Case(case=None, probe=context.probe, original_values={}, baseline_values={}),
    ]


@pytest.mark.parametrize("value", _value_objects(), ids=lambda v: type(v).__name__)
def test_value_objects_are_immutable_named_tuples(value):
    name, fields = type(value).__name__, type(value)._fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    shown = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
    assert repr(value) == f"{name}({shown})"
    assert value == tuple(getattr(value, f) for f in fields)
    assert type(value)(*value) == value


def test_fm2_stage_defaults_to_no_quality_events():
    assert Fm2Stage(calls=(), quality=(), baseline_quality=0.5, accuracy=0.8).quality_events == ()
