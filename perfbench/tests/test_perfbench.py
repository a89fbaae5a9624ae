"""Tests of the benchmark itself: seeded generation and the output checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import traced  # noqa: E402
import tracegen  # noqa: E402
from evalgate.cli import load_config, report_document  # noqa: E402
from evalgate import evaluator  # noqa: E402
from evalgate.evaluator import (  # noqa: E402
    evaluate_records,
    evaluate_stream,
    split_pipelines,
)
from evalgate.explanation import ProbeContext  # noqa: E402
from evalgate.model import StepResult, parse_trace_record  # noqa: E402
from evalgate.simulate import FM5_BASELINE_VALUES, FM5_ORIGINAL_VALUES, reference_probe  # noqa: E402

SMALL = 900


def _evaluate(trace: tracegen.Trace, tmp_path: Path) -> dict:
    config_path = None
    if trace.config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(trace.config))
    config = load_config(config_path)
    probe = ProbeContext(probe=reference_probe(), original_values=FM5_ORIGINAL_VALUES,
                         baseline_values=FM5_BASELINE_VALUES)
    report, diagnostics = evaluate_stream(trace.text.splitlines(), config, probe_context=probe)
    return json.loads(json.dumps(report_document(report, config, diagnostics)))


@pytest.mark.parametrize("workload", tracegen.WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    first = tracegen.generate(workload, 7, SMALL)
    second = tracegen.generate(workload, 7, SMALL)
    assert first.text.encode() == second.text.encode()
    assert first.answers == second.answers


@pytest.mark.parametrize("workload", tracegen.WORKLOADS)
def test_different_seed_gives_different_bytes(workload):
    assert tracegen.generate(workload, 7, SMALL).text != tracegen.generate(workload, 8, SMALL).text


@pytest.mark.parametrize("workload", tracegen.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2])
def test_known_answers_match_the_engine(workload, seed, tmp_path):
    trace = tracegen.generate(workload, seed, SMALL)
    answers = trace.answers
    document = _evaluate(trace, tmp_path)
    assert run.answer_mismatches(document, answers) == []

    assert len(trace.text.splitlines()) == answers["lines"] == SMALL
    assert sum(answers["record_counts"].values()) + len(answers["bad_lines"]) == SMALL
    assert sum(answers["bad_kinds"].values()) == len(answers["bad_lines"])
    records = []
    for number, line in enumerate(trace.text.splitlines(), start=1):
        if number not in answers["bad_lines"]:
            records.append(parse_trace_record(line, number))
    steps = [r for r in records if isinstance(r, StepResult)]
    assert len(split_pipelines(steps)) == answers["pipelines"]
    texts = {t for r in records if hasattr(r, "text_a") for t in (r.text_a, r.text_b)}
    assert len(texts) == answers["distinct_texts"]


@pytest.mark.parametrize("workload", tracegen.WORKLOADS)
def test_traced_dimension_spans_nest_in_one_evaluate_records_call(workload, tmp_path):
    trace = tracegen.generate(workload, 4, SMALL)
    config_path = None
    if trace.config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(trace.config))
    probe = ProbeContext(probe=reference_probe(), original_values=FM5_ORIGINAL_VALUES,
                         baseline_values=FM5_BASELINE_VALUES)
    records = [parse_trace_record(line, n) for n, line in enumerate(trace.text.splitlines(), 1)
               if n not in trace.answers["bad_lines"]]
    originals = [getattr(evaluator, name) for name, _ in traced.DIMENSION_CALLS]
    tracer = traced.Tracer()
    with tracer.span("evaluator.evaluate_records"), traced.dimension_spans(tracer):
        evaluate_records(records, load_config(config_path), probe_context=probe)
    assert [getattr(evaluator, name) for name, _ in traced.DIMENSION_CALLS] == originals

    whole = tracer.spans[-1]
    dimensions = tracer.spans[:-1]
    assert dimensions and {s["name"] for s in dimensions} <= set(run.DIMENSIONS)
    assert all(whole["start_ms"] <= s["start_ms"] <= s["end_ms"] <= whole["end_ms"]
               for s in dimensions)
    distribution = tracer.returns.get("distribution")
    windows = len(distribution[2]["windows"]) if distribution else 0
    assert windows == trace.answers["windows"]


def test_workloads_have_the_properties_they_were_chosen_for():
    ingest = tracegen.generate("ingest", 3, SMALL).answers
    assert ingest["bad_lines"] == [] and ingest["pairs"] == 0
    assert ingest["record_counts"]["attribution"] == 0

    semantic = tracegen.generate("semantic", 3, 3000).answers
    counts = semantic["record_counts"]
    assert counts["step"] == counts["tool_call"] == counts["output"] == 0
    # Pooled pairs repeat their texts: well under one distinct text per embedding.
    assert semantic["distinct_texts"] < 0.8 * 2 * semantic["pairs"]

    noisy = tracegen.generate("noisy-all5", 3, SMALL).answers
    assert all(noisy["record_counts"].values())
    assert all(noisy["bad_kinds"].values())
    assert noisy["distinct_texts"] == 2 * noisy["pairs"]


def test_checks_count_each_failing_run():
    answers = tracegen.generate("ingest", 1, 30).answers
    document = {"passed": True, "record_counts": answers["record_counts"], "parse_errors": [],
                "dimensions": {
                    "TOOL": {"metadata": {"call_counts": answers["call_counts"]}},
                    "DISTRIBUTION": {"metadata": {"windows": [{}] * answers["windows"]}}}}
    good = run.CliRun(1.0, 0, 10.0, 1.0, "aa")
    runs = [good, run.CliRun(1.0, 1, 10.0, 1.0, "aa"), run.CliRun(1.0, 0, 10.0, 1.0, "bb"),
            run.CliRun(1.0, 2, 10.0, 1.0, None)]
    failed, problems = run.check_runs(runs, document, "aa", answers)
    assert failed == 3 and len(problems) == 4

    wrong = dict(document, record_counts=dict(answers["record_counts"], step=0))
    failed, problems = run.check_runs([good], wrong, "aa", answers)
    assert failed == 1 and "record_counts" in problems[0]
