"""Routing, aggregation, and determinism of the evaluation pipeline."""

from __future__ import annotations

import json
import sys
from functools import reduce
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from evalgate import evaluator, model
from evalgate.consistency import ConsistencyResult
from evalgate.distribution import DistributionSnapshot
from evalgate.evaluator import aggregate, evaluate_records, evaluate_stream, split_pipelines
from evalgate.explanation import ExplanationResult, ProbeContext
from evalgate.model import (
    AttributionCase,
    Dimension,
    EvalConfig,
    EvaluationError,
    MetricResult,
    OutputEvent,
    RequestPair,
    StepResult,
    ToolCallRecord,
    ToolCallState,
    serialize_trace_record,
)
from evalgate.reliability import ReliabilityResult
from evalgate.simulate import (
    FM5_BASELINE_VALUES,
    FM5_ORIGINAL_VALUES,
    LinearProbe,
    ScenarioSpec,
    generate,
    generate_fm1,
    generate_fm3,
    reference_probe,
)

CFG = EvalConfig()


def probe_context() -> ProbeContext:
    return ProbeContext(reference_probe(), FM5_ORIGINAL_VALUES, FM5_BASELINE_VALUES)


def metric(score: float, passed: bool) -> MetricResult:
    return MetricResult(score, 1.0, passed, {})


def test_output_only_stream_contains_exactly_distribution():
    events = [OutputEvent(f"c{i % 5}", "s", i) for i in range(50)]
    report = evaluate_records(events, CFG)
    assert set(report.per_dimension) == {Dimension.DISTRIBUTION}


def test_empty_stream_is_an_error():
    with pytest.raises(EvaluationError, match="no evaluable records"):
        evaluate_records([], CFG)


def test_fm3_stream_reports_window_trajectory():
    report = evaluate_records(generate_fm3(42), CFG)
    result = report.per_dimension[Dimension.DISTRIBUTION]
    windows = result.metadata["windows"]
    assert [w["diversity"] for w in windows] == [0.200, 0.200, 0.080, 0.080, 0.030]
    assert result.metadata["diversity"] == 0.030
    assert result.confidence == 1.0
    assert not result.passed


@pytest.mark.parametrize("result", [
    ReliabilityResult(0.25, 0.5, 10, {"SUCCESS": 3, "PARTIAL": 1}, True, 0.375),
    ReliabilityResult(0.25, 0.0, 0, {"SUCCESS": 3, "PARTIAL": 1}, False, 0.75,
                      "no quality signal in window"),
    ConsistencyResult(0.5, 0.75, 4, True, 0.375),
    ExplanationResult(0.25, {"a": 0.5, "b": 0.125}, "a", 0.5, False),
    DistributionSnapshot(0.5, 0.25, 0.75, 3, 2, None, 0.4),
], ids=["ReliabilityResult", "ReliabilityResult-rho_fallback", "ConsistencyResult",
        "ExplanationResult", "DistributionSnapshot"])
def test_a_dimension_entry_is_its_fields_in_order_but_the_score(result):
    """The report entry is every field in field order, less the score and an
    absent rho_fallback (a None mean_quality stays); each value is the field's own."""
    metadata = result.metadata()
    assert list(metadata) == [
        name for name in result._fields
        if name != "score" and not (name == "rho_fallback" and result.rho_fallback is None)
    ]
    assert all(value is getattr(result, name) for name, value in metadata.items())


def test_unconsumed_extra_records_do_not_change_scores():
    events = generate_fm3(42)
    base = evaluate_records(events, CFG)
    pairs = [RequestPair("a", "a", "allow", "allow") for _ in range(3)]
    extended = evaluate_records(events + pairs, CFG)
    dist_a = base.per_dimension[Dimension.DISTRIBUTION]
    dist_b = extended.per_dimension[Dimension.DISTRIBUTION]
    assert dist_a.score == dist_b.score
    assert dist_a.metadata == dist_b.metadata
    assert Dimension.CONSISTENCY in extended.per_dimension


def test_attribution_without_probe_context_is_an_error():
    records = generate(ScenarioSpec("fm5", variant="causal"))
    with pytest.raises(EvaluationError, match="probe"):
        evaluate_records(records, CFG)


def test_explanation_dimension_with_probe():
    records = generate(ScenarioSpec("fm5", seed=42, variant="proxy_first"))
    report = evaluate_records(records, CFG, probe_context=probe_context())
    result = report.per_dimension[Dimension.EXPLANATION]
    assert result.score == pytest.approx(0.25, abs=1e-12)
    assert result.metadata["decoupled"] is True
    assert not result.passed


def test_split_pipelines_on_index_reset():
    steps = generate_fm1("healthy") + generate_fm1("low1")
    pipelines = split_pipelines(steps)
    assert [len(p) for p in pipelines] == [5, 5]
    report = evaluate_records(steps, CFG)
    result = report.per_dimension[Dimension.CASCADE]
    # mean of the two pipeline scores, metadata from the worse one
    assert result.score == pytest.approx((0.906 + 0.3245) / 2, abs=1e-12)
    assert result.metadata["failure_index"] == 1


def test_single_step_pipeline_noted_not_fatal():
    records = [StepResult(1, "only", 0.9)] + [OutputEvent("c", "s", 1)]
    report = evaluate_records(records, CFG)
    assert Dimension.CASCADE not in report.per_dimension
    assert Dimension.DISTRIBUTION in report.per_dimension


def test_aggregate_single_dimension_identity():
    overall, passed = aggregate({Dimension.TOOL: metric(0.7, True)}, CFG)
    assert overall == 0.7
    assert passed


def test_aggregate_mean_and_conjunction():
    results = {
        Dimension.TOOL: metric(0.9, True),
        Dimension.DISTRIBUTION: metric(0.3, False),
    }
    overall, passed = aggregate(results, CFG)
    assert overall == pytest.approx(0.6, abs=1e-12)
    assert not passed


def test_aggregate_respects_weights_renormalized():
    cfg = EvalConfig(aggregate_weights={"tool": 3.0, "distribution": 1.0})
    results = {
        Dimension.TOOL: metric(0.8, True),
        Dimension.DISTRIBUTION: metric(0.4, True),
    }
    overall, passed = aggregate(results, cfg)
    assert overall == pytest.approx((3 * 0.8 + 0.4) / 4, abs=1e-12)
    assert passed


def test_aggregate_is_the_unweighted_mean_when_every_present_weight_is_zero():
    cfg = EvalConfig(aggregate_weights={"tool": 0.0, "distribution": 0.0})
    results = {
        Dimension.TOOL: metric(0.9, True),
        Dimension.DISTRIBUTION: metric(0.3, False),
    }
    overall, _ = aggregate(results, cfg)
    assert overall == pytest.approx(0.6, abs=1e-12)

    states = [ToolCallState.PARTIAL] * 2 + [ToolCallState.SUCCESS] * 8
    calls = [ToolCallRecord("svc", state, 10.0, i) for i, state in enumerate(states)]
    report = evaluate_records(calls, EvalConfig(aggregate_weights={"tool": 0}))
    assert set(report.per_dimension) == {Dimension.TOOL}
    assert report.overall_score == report.per_dimension[Dimension.TOOL].score == 0.8


def test_a_subnormal_weight_keeps_the_precision_of_its_score():
    records = generate(ScenarioSpec("fm3", 42))
    report = evaluate_records(records, EvalConfig(aggregate_weights={"distribution": 1e-320}))
    assert set(report.per_dimension) == {Dimension.DISTRIBUTION}
    assert report.overall_score == report.per_dimension[Dimension.DISTRIBUTION].score

    results = {Dimension.TOOL: metric(0.7, True), Dimension.DISTRIBUTION: metric(0.3, True)}
    tiny = EvalConfig(aggregate_weights={"tool": 1e-320, "distribution": 3e-320})
    normal = EvalConfig(aggregate_weights={"tool": 1.0, "distribution": 3.0})
    assert aggregate(results, tiny) == aggregate(results, normal)


weights = st.one_of(st.just(0.0), st.floats(2.0**-500, 1e300), st.floats(0.0, 1.0))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(Dimension)), weights, st.floats(0.0, 1.0)),
                min_size=1, max_size=5, unique_by=lambda t: t[0]))
def test_scaling_the_weights_keeps_every_bit_when_products_and_sums_are_normal(drawn):
    products = [w * s for _, w, s in drawn]
    assume(all(w * s >= sys.float_info.min or 0.0 in (w, s) for _, w, s in drawn))
    total = reduce(add, (w for _, w, _ in drawn), 0.0)
    assume(0.0 < total < sys.float_info.max)
    cfg = EvalConfig(aggregate_weights={d.value.lower(): w for d, w, _ in drawn})
    overall, _ = aggregate({d: metric(s, True) for d, _, s in drawn}, cfg)
    assert overall.hex() == (reduce(add, products, 0.0) / total).hex()


def test_threshold_boundary_passes_at_equality():
    report = evaluate_records(
        generate_fm1("healthy"),
        EvalConfig(dimension_thresholds={"cascade": 0.906}),
    )
    assert report.per_dimension[Dimension.CASCADE].passed
    report_above = evaluate_records(
        generate_fm1("healthy"),
        EvalConfig(dimension_thresholds={"cascade": 0.907}),
    )
    assert not report_above.per_dimension[Dimension.CASCADE].passed


def test_raising_threshold_is_monotone_on_gate():
    lenient = evaluate_records(generate_fm3(42), EvalConfig(dimension_thresholds={"distribution": 0.1}))
    strict = evaluate_records(generate_fm3(42), EvalConfig(dimension_thresholds={"distribution": 0.9}))
    assert lenient.passed and not strict.passed


def test_evaluate_stream_collects_parse_errors_with_lines():
    lines = [serialize_trace_record(r) for r in generate_fm1("healthy")]
    lines.insert(2, '{"type":"step","step_index":0,"step_name":"x","confidence":0.5}')
    lines.insert(4, "garbage")
    report, diagnostics = evaluate_stream(lines, CFG)
    assert len(diagnostics.parse_errors) == 2
    assert {e["line"] for e in diagnostics.parse_errors} == {3, 5}
    assert Dimension.CASCADE in report.per_dimension


def test_evaluate_stream_entirely_unparseable_fails():
    with pytest.raises(EvaluationError):
        evaluate_stream(["nope", "{}", '{"type":"??"}'], CFG)


def test_reports_are_deterministic_across_runs():
    records = generate(ScenarioSpec("fm2", seed=11))
    a = evaluate_records(records, CFG)
    b = evaluate_records(records, CFG)
    assert {d: (r.score, r.confidence, r.passed) for d, r in a.per_dimension.items()} == \
        {d: (r.score, r.confidence, r.passed) for d, r in b.per_dimension.items()}
    assert a.overall_score == b.overall_score
    meta_a = {d: r.metadata for d, r in a.per_dimension.items()}
    meta_b = {d: r.metadata for d, r in b.per_dimension.items()}
    assert meta_a == meta_b


def test_equal_inputs_give_equal_reports():
    records = [r for scenario in ("fm1", "fm2", "fm3", "fm5")
               for r in generate(ScenarioSpec(scenario, seed=11))]
    assert evaluate_records(records, CFG, probe_context()) == \
        evaluate_records(records, CFG, probe_context())
    lines = [serialize_trace_record(r) for r in records]
    assert evaluate_stream(lines, CFG, probe_context()) == \
        evaluate_stream(lines, CFG, probe_context())


def test_json_loads_reads_only_the_lines_that_are_not_json(monkeypatch):
    records = [r for scenario in ("fm1", "fm2", "fm3", "fm5")
               for r in generate(ScenarioSpec(scenario, seed=11))]
    records += [RequestPair("refund order 7", "refund order seven", "allow", "allow")] * 3
    lines = [serialize_trace_record(r) for r in records]
    step = lines[0]
    not_json = ["not a record", "{", step + "x", step + step, "\ufeff" + step, step[:-1]]
    breaks_rules = [
        "[]", "null", '{"type":"mystery"}', '{"type":"step","step_index":1,"confidence":0.5}',
        step.replace('"confidence":', '"confidence":1.5,"was":'),
        '{"type":"output","category":"c","session_id":"s","timestamp":1,"quality_signal":NaN}',
    ]
    lines[1:1] = not_json + breaks_rules + [f" \t{step}\r\n"]
    calls = []
    loads = json.loads

    def counting_loads(*args, **kwargs):
        calls.append(args[0])
        return loads(*args, **kwargs)

    monkeypatch.setattr(model.json, "loads", counting_loads)
    report, diagnostics = evaluate_stream(lines, CFG, probe_context())
    assert len(diagnostics.parse_errors) == len(not_json) + len(breaks_rules)
    assert set(report.per_dimension) == set(Dimension)
    assert sorted(calls) == sorted(not_json)


def test_custom_embedding_provider_is_used():
    class FixedProvider:
        dimension = 2

        def embed(self, text: str) -> list[float]:
            return [1.0, 0.0] if len(text) % 2 == 0 else [0.0, 1.0]

    pairs = [RequestPair("ab", "abcd", "allow", "allow")]  # both even: sim 1
    report = evaluate_records(pairs, CFG, embedding_provider=FixedProvider())
    assert report.per_dimension[Dimension.CONSISTENCY].score == 1.0
    odd_pairs = [RequestPair("ab", "abc", "allow", "allow")]  # orthogonal
    report_odd = evaluate_records(odd_pairs, CFG, embedding_provider=FixedProvider())
    assert report_odd.per_dimension[Dimension.CONSISTENCY].score == 0.0


def test_tool_confidence_is_window_fill_fraction():
    records = generate(ScenarioSpec("fm2", seed=3))
    report = evaluate_records(records, CFG)
    assert report.per_dimension[Dimension.TOOL].confidence == 1.0  # 200 calls >= window 100
    few = [r for r in records if not isinstance(r, OutputEvent)][:25]
    report_few = evaluate_records(few, CFG)
    assert report_few.per_dimension[Dimension.TOOL].confidence == pytest.approx(0.25)


# --- EXPLANATION: one probe run per distinct (feature names, ranks) ---------
# The memo against reference.explanation, which runs the probe for every case.

FIVE = ("f0", "f1", "f2", "f3", "f4")
ONES = {name: 1.0 for name in FIVE}
ZEROS = {name: 0.0 for name in FIVE}


class CountingProbe:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict(self, values):
        self.calls += 1
        return self.inner.predict(values)


@st.composite
def explanation_inputs(draw):
    """A 5-feature linear probe (tied and zero weights included) and cases over
    a few name tuples, with weights from a small set so that ties are common,
    0.0 against -0.0 among them. Now and then a built case's weights are
    reassigned in any order, and the baseline lacks f4, so a case naming it
    raises."""
    probe_weights = draw(st.lists(st.sampled_from((0.0, 0.05, 0.1, 0.2, 0.3)),
                                  min_size=5, max_size=5))
    probe = LinearProbe(dict(zip(FIVE, probe_weights)), bias=0.1)
    name_pool = draw(st.lists(
        st.integers(2, 5).flatmap(
            lambda k: st.permutations(FIVE).map(lambda names: tuple(names[:k]))),
        min_size=1, max_size=4))
    cases = []
    for _ in range(draw(st.integers(1, 30))):
        names = draw(st.sampled_from(name_pool))
        weights = draw(st.lists(st.sampled_from((0.0, -0.0, 0.1, 0.5, 0.9)),
                                min_size=len(names), max_size=len(names)))
        cases.append(AttributionCase(names, sorted(weights, reverse=True), 0.5))
        if draw(st.integers(0, 3)) == 0:
            cases[-1].claimed_weights = tuple(weights)
    missing = draw(st.sampled_from((None, None, None, "f4")))
    baseline = {name: 0.0 for name in FIVE if name != missing}
    return cases, ProbeContext(probe, ONES, baseline)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(explanation_inputs())
def test_explanation_memo_matches_the_per_case_loop(inputs):
    cases, context = inputs
    assert reference.outcome(evaluator._evaluate_explanation_dimension, cases, context, CFG) == \
        reference.outcome(reference.explanation, cases, context, CFG)


def test_probe_runs_once_per_distinct_names_and_ranks():
    cases = [
        AttributionCase(("f0", "f1", "f2"), (0.9, 0.5, 0.1), 0.5),
        AttributionCase(("f0", "f1", "f2"), (0.8, 0.4, 0.2), 0.5),  # same key
        AttributionCase(("f0", "f1", "f2"), (0.5, 0.5, 0.1), 0.5),  # a tie: new ranks, new key
        AttributionCase(("f1", "f0"), (0.9, 0.1), 0.5),
        AttributionCase(("f1", "f0"), (0.3, 0.2), 0.5),
        AttributionCase(("f0", "f1", "f2"), (0.6, 0.6, 0.2), 0.5),  # the third key again
    ]
    probe = CountingProbe(LinearProbe({"f0": 0.4, "f1": 0.3, "f2": 0.2}, bias=0.05))
    context = ProbeContext(probe, ONES, ZEROS)
    result = evaluator._evaluate_explanation_dimension(cases, context, CFG)
    # len(names) perturbations, the unperturbed call and the determinism re-check
    assert probe.calls == (3 + 2) + (3 + 2) + (2 + 2)
    assert reference.exact(result) == reference.exact(reference.explanation(cases, context, CFG))


def test_cases_with_reordered_weights_do_not_share_a_memo_entry():
    first = AttributionCase(("f0", "f1", "f2"), (0.9, 0.5, 0.1), 0.5)
    second = AttributionCase(("f0", "f1", "f2"), (0.9, 0.5, 0.1), 0.5)
    second.claimed_weights = (0.1, 0.5, 0.9)  # a built case is mutable
    probe = CountingProbe(LinearProbe({"f0": 0.4, "f1": 0.3, "f2": 0.2}, bias=0.05))
    context = ProbeContext(probe, ONES, ZEROS)
    result = evaluator._evaluate_explanation_dimension([first, second], context, CFG)
    assert probe.calls == 2 * (3 + 2)
    assert reference.exact(result) == reference.exact(reference.explanation([first, second],
                                                                            context, CFG))


def test_memo_keys_leave_no_memory_behind():
    # A dropped key must not be kept on an interpreter free list: 3,000 cases
    # of one key would otherwise leave up to 2,000 blocks allocated.
    cases = [AttributionCase(("f0", "f1", "f2"), (0.9, 0.5, 0.1), 0.5) for _ in range(3000)]
    context = ProbeContext(LinearProbe({"f0": 0.4, "f1": 0.3, "f2": 0.2}, bias=0.05), ONES, ZEROS)
    evaluator._evaluate_explanation_dimension(cases[:10], context, CFG)
    before = sys.getallocatedblocks()
    evaluator._evaluate_explanation_dimension(cases, context, CFG)
    assert sys.getallocatedblocks() - before < 500


def _fm5_lines(copies: int) -> list[str]:
    records = []
    for variant in ("causal", "proxy_first", "proxy_second"):
        records += generate(ScenarioSpec("fm5", seed=42, variant=variant))
    return [serialize_trace_record(r) for r in records] * copies


def test_drifting_probe_is_still_rejected():
    class Drifty:
        def __init__(self):
            self.n = 0

        def predict(self, values):
            self.n += 1
            return 0.5 + self.n * 1e-6

    context = ProbeContext(Drifty(), FM5_ORIGINAL_VALUES, FM5_BASELINE_VALUES)
    with pytest.raises(EvaluationError, match="not deterministic"):
        evaluate_stream(_fm5_lines(20), CFG, probe_context=context)


def test_each_evaluation_uses_its_own_probe():
    lines = _fm5_lines(10)
    other = ProbeContext(
        LinearProbe({"transaction_velocity": 0.1, "device_age_days": 0.2,
                     "geography_risk_score": 0.6}, bias=0.05),
        FM5_ORIGINAL_VALUES, FM5_BASELINE_VALUES,
    )
    scores = [
        evaluate_stream(lines, CFG, probe_context=context)[0]
        .per_dimension[Dimension.EXPLANATION].score
        for context in (probe_context(), other, probe_context())
    ]
    assert scores[0] == scores[2] != scores[1]
