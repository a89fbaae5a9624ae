"""CLI behavior: exit codes, config loading, report document, atomicity."""

from __future__ import annotations

import fcntl
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalgate import cli
from evalgate.cli import load_config, main
from evalgate.evaluator import evaluate_stream
from evalgate.model import (EvalConfig, EvaluationError, InputError, StepResult,
                            serialize_trace_record)
from evalgate.simulate import FM1_VARIANTS, SCENARIO_VARIANTS, ScenarioSpec, generate


def run_cli(*argv: str) -> int:
    return main(list(argv))


def simulate_to(path, scenario, *extra) -> None:
    assert run_cli("simulate", "--scenario", scenario, "--output", str(path), *extra) == 0


def test_healthy_trace_exits_zero(tmp_path):
    trace = tmp_path / "t.jsonl"
    simulate_to(trace, "fm1", "--variant", "healthy")
    assert run_cli("evaluate", "--input", str(trace)) == 0


def test_collapsing_trace_exits_one_with_distribution_below_threshold(tmp_path):
    trace = tmp_path / "t.jsonl"
    report_path = tmp_path / "report.json"
    simulate_to(trace, "fm3", "--seed", "42")
    assert run_cli("evaluate", "--input", str(trace), "--output", str(report_path)) == 1
    document = json.loads(report_path.read_text())
    assert document["dimensions"]["DISTRIBUTION"]["passed"] is False
    assert document["dimensions"]["DISTRIBUTION"]["score"] < 0.6


def test_missing_input_exits_two(tmp_path):
    assert run_cli("evaluate", "--input", str(tmp_path / "absent.jsonl")) == 2


def test_garbage_input_exits_two(tmp_path):
    trace = tmp_path / "bad.jsonl"
    trace.write_text("not a record\n{}\n")
    assert run_cli("evaluate", "--input", str(trace)) == 2


def test_unhashable_type_is_a_parse_error_and_other_lines_evaluate(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    report_path = tmp_path / "r.json"
    simulate_to(trace, "fm1", "--variant", "healthy")
    with trace.open("a") as handle:
        handle.write('{"type": []}\n{"type": {}}\n')
    assert run_cli("evaluate", "--input", str(trace), "--output", str(report_path)) == 0
    document = json.loads(report_path.read_text())
    assert document["record_counts"]["step"] == 5
    assert [e["message"] for e in document["parse_errors"]] == [
        "line 6: unknown record type: []",
        "line 7: unknown record type: {}",
    ]
    assert "Traceback" not in capsys.readouterr().err


def test_attribution_with_features_the_probe_lacks_exits_two(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    report_path = tmp_path / "r.json"
    trace.write_text(
        '{"type":"attribution","feature_names":["foo","bar"],'
        '"claimed_weights":[0.6,0.4],"decision_value":0.5}\n'
    )
    assert run_cli("evaluate", "--input", str(trace), "--output", str(report_path)) == 2
    assert not report_path.exists()
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
    assert "foo" in err_lines[0]


def test_strict_mode_fails_on_any_parse_error(tmp_path):
    trace = tmp_path / "t.jsonl"
    simulate_to(trace, "fm1", "--variant", "healthy")
    with trace.open("a") as handle:
        handle.write("broken line\n")
    assert run_cli("evaluate", "--input", str(trace)) == 0
    assert run_cli("evaluate", "--input", str(trace), "--strict") == 2


def test_stderr_lists_the_first_parse_errors_and_the_report_lists_all(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    report_path = tmp_path / "r.json"
    simulate_to(trace, "fm1", "--variant", "healthy")
    with trace.open("a") as handle:
        handle.write("broken line\n" * 100)
    capsys.readouterr()
    assert run_cli("evaluate", "--input", str(trace), "--output", str(report_path)) == 0
    err_lines = capsys.readouterr().err.splitlines()
    parse_lines = [line for line in err_lines if line.startswith("parse error:")]
    assert len(parse_lines) == 21
    assert parse_lines[-1] == "parse error: ... and 80 more; all are listed in the report"
    assert len(json.loads(report_path.read_text())["parse_errors"]) == 100


def _wholly_rejected_tool_calls(path) -> None:
    """5 healthy steps; 1000 steps and then 1000 tool calls, each rejected by a check
    or a missing field; and lines of no known type, which count against no type."""
    simulate_to(path, "fm1", "--variant", "healthy")
    with path.open("a") as handle:
        handle.write('{"type":"step","step_index":0,"step_name":"x","confidence":0.5}\n' * 1000)
        handle.write('{"type":"tool_call","tool_name":"t","state":"TIMEOUT",'
                     '"latency_ms":1,"timestamp":0}\n' * 999)
        handle.write('{"type":"tool_call","tool_name":"t","state":"SUCCESS"}\n')
        handle.write('not json\n{"type":"span"}\n{"type":["tool_call"]}\n')


WHOLLY_REJECTED_ERROR = ("error: tool_call: 1000 line(s) rejected, none accepted; "
                         "TOOL not scored [parse.type_rejected]")


def test_a_wholly_rejected_type_is_named_once_on_stderr_and_never_in_the_report(
    tmp_path, capsys
):
    trace, report_path = tmp_path / "t.jsonl", tmp_path / "r.json"
    _wholly_rejected_tool_calls(trace)
    with trace.open("rb") as handle:
        _, diagnostics = evaluate_stream(handle)
    assert diagnostics.rejected_counts == {"step": 1000, "tool_call": 1000}
    assert [(name, dim.value) for name, dim in diagnostics.unscored.items()] == \
        [("tool_call", "TOOL")]
    assert len(diagnostics.parse_errors) == 2003
    capsys.readouterr()
    assert run_cli("evaluate", "--input", str(trace), "--output", str(report_path)) == 2
    assert not report_path.exists()
    err_lines = capsys.readouterr().err.splitlines()
    assert [line for line in err_lines if "[parse.type_rejected]" in line] == \
        [WHOLLY_REJECTED_ERROR]
    assert err_lines[21:] == [WHOLLY_REJECTED_ERROR]  # after the 21 parse-error lines

    assert run_cli("evaluate", "--input", str(trace), "--output", str(report_path),
                   "--strict") == 2
    assert not report_path.exists()
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines[21:] == [WHOLLY_REJECTED_ERROR,
                              "error: --strict and 2003 line(s) failed to parse"]


@pytest.mark.parametrize("error, shown", [
    (MemoryError(), "error: out of memory"),
    (MemoryError("cannot allocate"), "error: out of memory"),
    (RuntimeError(), "error: unexpected RuntimeError"),
    (KeyError(""), "error: unexpected KeyError: ''"),
    (ValueError(), "error: ValueError"),
    (OSError(), "error: OSError"),
    (EvaluationError(), "error: EvaluationError"),
    (ValueError("bad value"), "error: bad value"),
])
def test_an_unexpected_error_is_one_named_stderr_line_and_exit_two(
    tmp_path, monkeypatch, capsys, error, shown
):
    trace = tmp_path / "t.jsonl"
    simulate_to(trace, "fm1", "--variant", "healthy")

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "evaluate_stream", fail)
    capsys.readouterr()
    assert run_cli("evaluate", "--input", str(trace)) == 2
    assert capsys.readouterr().err.splitlines() == [shown]


def test_unknown_scenario_or_variant_exits_two(tmp_path):
    out = tmp_path / "t.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "evalgate.cli", "simulate", "--scenario", "fm9"],
        capture_output=True,
    )
    assert proc.returncode == 2
    assert run_cli("simulate", "--scenario", "fm1", "--variant", "nope", "--output", str(out)) == 2
    assert run_cli("simulate", "--scenario", "fm2", "--variant", "x", "--output", str(out)) == 2


def test_simulated_trace_content(tmp_path):
    trace = tmp_path / "low1.jsonl"
    simulate_to(trace, "fm1", "--variant", "low1")
    lines = trace.read_text().splitlines()
    assert len(lines) == 5
    confidences = [json.loads(line)["confidence"] for line in lines]
    assert confidences == [0.31, 0.87, 0.88, 0.90, 0.85]


def test_simulate_twice_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    simulate_to(a, "fm2", "--seed", "7")
    simulate_to(b, "fm2", "--seed", "7")
    assert a.read_bytes() == b.read_bytes()


def test_report_document_shape_and_resolved_config(tmp_path):
    trace = tmp_path / "t.jsonl"
    report_path = tmp_path / "r.json"
    simulate_to(trace, "fm3", "--seed", "42")
    run_cli("evaluate", "--input", str(trace), "--output", str(report_path))
    document = json.loads(report_path.read_text())
    assert set(document) == {
        "config", "dimensions", "overall_score", "passed",
        "record_counts", "parse_errors", "evaluation_notes",
    }
    assert document["config"]["lambda"] == 0.5
    assert document["record_counts"]["output"] == 500
    windows = document["dimensions"]["DISTRIBUTION"]["metadata"]["windows"]
    assert len(windows) == 5


def test_config_file_overrides_and_report_echoes_them(tmp_path):
    trace = tmp_path / "t.jsonl"
    config_path = tmp_path / "cfg.json"
    report_path = tmp_path / "r.json"
    simulate_to(trace, "fm1", "--variant", "low1")
    config_path.write_text(json.dumps({"lambda": 0.1, "dimension_thresholds": {"cascade": 0.5}}))
    code = run_cli(
        "evaluate", "--input", str(trace), "--config", str(config_path),
        "--output", str(report_path),
    )
    document = json.loads(report_path.read_text())
    assert document["config"]["lambda"] == 0.1
    # 0.762 - 0.1 * 0.875 = 0.6745 >= 0.5 threshold
    assert document["dimensions"]["CASCADE"]["score"] == pytest.approx(0.6745, abs=1e-12)
    assert code == 0


def test_integer_weights_and_thresholds_give_the_report_of_their_floats(tmp_path):
    trace = tmp_path / "t.jsonl"
    simulate_to(trace, "fm1", "--variant", "low1")
    reports = []
    for weight, threshold in ((2, 1), (2.0, 1.0)):
        config_path = tmp_path / f"cfg-{weight!r}.json"
        report_path = tmp_path / f"r-{weight!r}.json"
        config_path.write_text(json.dumps({"aggregate_weights": {"cascade": weight},
                                           "dimension_thresholds": {"cascade": threshold}}))
        assert run_cli("evaluate", "--input", str(trace), "--config", str(config_path),
                       "--output", str(report_path)) == 1
        reports.append(report_path.read_bytes())
    assert reports[0] == reports[1]


# sha256 of the report for each acceptance scenario at seed 42, and its exit code
REPORT_DIGESTS = {
    ("fm1", "healthy"): (0, "37be1049c56713b36dfecb566d4e5063721ae0330056e7f805c8dba3bd947759"),
    ("fm1", "low1"): (1, "ec195f8d10c5408662269017eb0264cc8e0b6cc93b4f5e135916ee7b57356bd3"),
    ("fm1", "low2"): (1, "2cf54c2bde4eaa4dfd9ae8d720760574f4e863e933a9741a01f23e57220be622"),
    ("fm1", "multi"): (1, "cda2fb9171fa883f81fb0fb3117ab92d3d94dc90e932ce0bf5bbf31d15ae27ba"),
    ("fm2", None): (1, "8f7532e7ed0d709d1293e5c654503558d51a641e9439b8dacc85e50c3f8a7aa7"),
    ("fm3", None): (1, "679adfb4a3e092044b49742d8c1c9e86a6359b72985588dc62281a87e5bde75e"),
    ("fm5", "causal"): (0, "af246e0342008b6d1f6514908ac8805e3575fe5e486fcbec1c209236a2728279"),
    ("fm5", "proxy_first"): (1, "9d53fac3875c275bf69507dcc3b1282e4fc16ce936c9c2b591176268981714b7"),
    ("fm5", "proxy_second"): (0, "ccb65ebc7a839df56da6fac6b0302d95a0c4ff09b3cae07145fb694230fa773e"),
}


def padded(trace: str) -> str:
    """The trace with an unknown field in each record and a blank line after each line."""
    return "".join(('{"reasoning":"why",' + line[1:] if line.startswith('{"type"') else line)
                   + "\n\n" for line in trace.splitlines())


@pytest.mark.parametrize("scenario, variant", list(REPORT_DIGESTS))
def test_report_bytes_are_pinned(tmp_path, scenario, variant):
    trace = tmp_path / "t.jsonl"
    report_path = tmp_path / "r.json"
    simulate_to(trace, scenario, "--seed", "42", *(["--variant", variant] if variant else []))
    for text in (trace.read_text(), padded(trace.read_text())):  # padding moves no byte
        trace.write_text(text)
        code = run_cli("evaluate", "--input", str(trace), "--output", str(report_path))
        digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
        assert (code, digest) == REPORT_DIGESTS[scenario, variant]


# All five record types, two bad lines, a one-step pipeline (a cascade: note)
# and tool calls with no quality signal (a tool: note).
MIXED_TRACE = (
    '{"type":"step","step_index":1,"step_name":"retrieve","confidence":0.9}\n'
    '{"type":"step","step_index":2,"step_name":"plan","confidence":0.4}\n'
    '{"type":"step","step_index":3,"step_name":"answer","confidence":0.8}\n'
    '{"type":"step","step_index":1,"step_name":"lone","confidence":0.7}\n'
    '{"type":"tool_call","tool_name":"svc","state":"SUCCESS","latency_ms":120,"timestamp":0}\n'
    '{"type":"tool_call","tool_name":"svc","state":"PARTIAL","latency_ms":340.5,"timestamp":10}\n'
    '{"type":"tool_call","tool_name":"svc","state":"FAILED","latency_ms":90,"timestamp":20}\n'
    '{"type":"output","category":"approve","session_id":"s1","timestamp":5}\n'
    '{"type":"output","category":"deny","session_id":"s1","timestamp":15}\n'
    '{"type":"output","category":"approve","session_id":"s2","timestamp":25}\n'
    '{"type":"attribution","feature_names":["geography_risk_score","transaction_velocity",'
    '"device_age_days"],"claimed_weights":[0.5,0.3,0.2],"decision_value":0.5}\n'
    '{"type":"request_pair","text_a":"refund my order","text_b":"please refund my order",'
    '"decision_a":"approve","decision_b":"approve"}\n'
    '{"type":"request_pair","text_a":"close my account","text_b":"delete my account",'
    '"decision_a":"approve","decision_b":"escalate"}\n'
    'not json\n'
    '{"type":"step","step_index":1,"step_name":"x","confidence":1.5}\n'
)


def test_report_bytes_with_notes_and_parse_errors_are_pinned(tmp_path):
    trace = tmp_path / "t.jsonl"
    report_path = tmp_path / "r.json"
    trace.write_text(MIXED_TRACE)
    code = run_cli("evaluate", "--input", str(trace), "--output", str(report_path))
    document = json.loads(report_path.read_text())
    assert len(document["dimensions"]) == 5 and len(document["parse_errors"]) == 2
    assert [note.split(":")[0] for note in document["evaluation_notes"]] == ["cascade", "tool"]
    digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
    assert (code, digest) == (
        1, "d8c9bdca87d02a391057b41cde1da03e03b4b3d9959ded16ac5b30b964c2718c"
    )
    # Padding moves only the bad lines' numbers: line n becomes line 2n - 1.
    text = report_path.read_text()
    trace.write_text(padded(MIXED_TRACE))
    moved = run_cli("evaluate", "--input", str(trace), "--output", str(report_path))
    renumbered = re.sub(r'("line": |line )(\d+)', lambda m: f"{m[1]}{2 * int(m[2]) - 1}", text)
    assert (moved, report_path.read_text()) == (code, renumbered) != (code, text)


def test_report_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """Interpreters that hash strings differently write the same report and
    exit with the same code, also for pair texts that repeat a token. The
    pair of 40-token texts collides on some of the embedder's 256 indices,
    so its similarity would move if a token's index followed the string hash."""
    trace = tmp_path / "t.jsonl"
    trace.write_text(MIXED_TRACE + "".join(
        f'{{"type":"output","category":"c{i * i % 7}","session_id":"s","timestamp":{i},'
        f'"quality_signal":{i % 10 / 10}}}\n' for i in range(30)
    ) + "".join(
        json.dumps({"type": "request_pair", "text_a": a, "text_b": b,
                    "decision_a": "approve", "decision_b": "approve"}) + "\n"
        for a, b in [("refund refund my order", "please refund my order order"),
                     ("my account my account", "close the account now"),
                     ("order order order", "order"),
                     (" ".join(map("w{}".format, range(40))),
                      " ".join(map("w{}".format, range(20, 60))))]
    ) + '{"type":"tool_call","tool_name":"svc","state":"TIMEOUT","latency_ms":1,"timestamp":3}\n')
    src = str(Path(cli.__file__).resolve().parents[1])
    outcomes = []
    for seed in ("0", "1", "12345"):
        report = tmp_path / f"r{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "evalgate.cli", "evaluate", "--input", str(trace),
             "--output", str(report)],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}, capture_output=True,
        )
        outcomes.append((proc.returncode, report.read_bytes()))
    document = json.loads(outcomes[0][1])
    assert len(document["dimensions"]) == 5 and len(document["parse_errors"]) == 3
    assert outcomes[0][0] in (0, 1)
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_a_ten_megabyte_type_or_state_adds_under_a_kilobyte_to_report_and_stderr(tmp_path, capsys):
    trace, report = tmp_path / "t.jsonl", tmp_path / "r.json"
    simulate_to(trace, "fm1", "--variant", "healthy")
    healthy, huge = trace.read_text(), "x" * 10_000_000
    # An accepted tool call after the bad line, so that TOOL is scored in every run.
    tool_call = ('{"type":"tool_call","tool_name":"t","state":"SUCCESS","latency_ms":1,'
                 '"timestamp":0}\n')
    runs = []
    for bad in ("", {"type": huge}, {"type": "tool_call", "tool_name": "t", "state": huge,
                                     "latency_ms": 1, "timestamp": 0}):
        trace.write_text(healthy + (json.dumps(bad) + "\n" if bad else "") + tool_call)
        capsys.readouterr()
        assert run_cli("evaluate", "--input", str(trace), "--output", str(report)) in (0, 1)
        errors = json.loads(report.read_text())["parse_errors"]
        runs.append((report.stat().st_size, len(capsys.readouterr().err), errors))
    # At most 100 characters of the value's repr, and a mark that says it was cut.
    echoed = "'" + "x" * 99 + "...[10000002 characters]"
    for (report_size, stderr_size, errors), message in zip(runs[1:], (
            f"unknown record type: {echoed}",
            f"state must be one of ['SUCCESS', 'PARTIAL', 'FAILED'], got {echoed}")):
        assert report_size - runs[0][0] < 1024 and stderr_size - runs[0][1] < 1024
        assert errors == [{"line": 6, "message": f"line 6: {message}"}]


def test_a_long_config_key_or_step_index_adds_under_a_kilobyte_to_stderr_or_report(
        tmp_path, capsys):
    config, trace, report = tmp_path / "c.json", tmp_path / "t.jsonl", tmp_path / "r.json"
    simulate_to(trace, "fm1", "--variant", "healthy")
    echoed = "'" + "k" * 99 + "...[1000002 characters]"
    for short, long, message in (
            ({"k": 1}, {"k" * 1_000_000: 1}, f"unknown config key {echoed}"),
            ({"aggregate_weights": {"k": 1}}, {"aggregate_weights": {"k" * 1_000_000: 1}},
             f"invalid config: unknown dimension in aggregate_weights: {echoed}")):
        stderr = []
        for payload in (short, long):
            config.write_text(json.dumps(payload))
            capsys.readouterr()
            assert run_cli("evaluate", "--input", str(trace), "--config", str(config)) == 2
            stderr.append(capsys.readouterr().err)
        assert len(stderr[1]) - len(stderr[0]) < 1024
        assert stderr[1] == f"error: {message}\n"

    healthy, sizes = trace.read_text(), []
    for step_index in (-1, -10**3999):
        line = {"type": "step", "step_index": step_index, "step_name": "s", "confidence": 0.5}
        trace.write_text(healthy + json.dumps(line) + "\n")
        assert run_cli("evaluate", "--input", str(trace), "--output", str(report)) in (0, 1)
        sizes.append(report.stat().st_size)
    errors = json.loads(report.read_text())["parse_errors"]
    assert sizes[1] - sizes[0] < 1024
    assert errors == [{"line": 6, "message": "line 6: step_index must be >= 1, got -"
                       + "1" + "0" * 98 + "...[4001 characters]"}]

    stderr = []  # a feature name the probe lacks still exits 2, with one short line
    for feature in ("k", "k" * 1_000_000):
        line = {"type": "attribution", "feature_names": [feature, "bar"],
                "claimed_weights": [0.6, 0.4], "decision_value": 0.5}
        trace.write_text(json.dumps(line) + "\n")
        capsys.readouterr()
        assert run_cli("evaluate", "--input", str(trace)) == 2
        stderr.append(capsys.readouterr().err)
    assert len(stderr[1]) - len(stderr[0]) < 1024
    assert stderr[1] == f"error: baseline_values missing feature {echoed}\n"


def _repeating_trace() -> str:
    """Attribution records with tied weights whose (feature names, ranks)
    repeats with other weights, and request pairs repeated in both orders."""
    velocity, device, geography = "transaction_velocity", "device_age_days", "geography_risk_score"
    attributions = [
        ([velocity, device, geography], [0.5, 0.5, 0.1]),
        ([geography, velocity], [0.4, 0.4]),
        ([geography, device, velocity], [0.7, 0.2, 0.2]),
        ([velocity, device, geography], [0.9, 0.9, 0.3]),  # the first key again
        ([velocity, device, geography], [0.8, 0.3, 0.1]),  # same names, no tie
        ([device, velocity], [0.6, 0.1]),
        ([geography, velocity], [0.2, 0.2]),  # the second key again
    ]
    texts = [("refund my order", "please refund my order"),
             ("close my account", "delete my account now"),
             ("Refund MY order", "refund my order")]
    lines = []
    for i in range(60):
        names, weights = attributions[i % len(attributions)]
        lines.append(json.dumps({"type": "attribution", "feature_names": names,
                                 "claimed_weights": weights, "decision_value": 0.5}))
        a, b = texts[i % len(texts)]
        if i % 4 == 1:
            a, b = b, a
        lines.append(json.dumps({"type": "request_pair", "text_a": a, "text_b": b,
                                 "decision_a": "approve",
                                 "decision_b": "escalate" if i % 9 == 0 else "approve"}))
    return "\n".join(lines) + "\n"


# exit code and report sha256 recorded before EXPLANATION scored each
# distinct (feature names, ranks) once per run
def test_report_bytes_with_repeated_attributions_and_pairs_are_pinned(tmp_path):
    trace = tmp_path / "t.jsonl"
    report_path = tmp_path / "r.json"
    trace.write_text(_repeating_trace())
    code = run_cli("evaluate", "--input", str(trace), "--output", str(report_path))
    digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
    assert (code, digest) == (
        1, "933b96ae9c5841042f679e7811418c6262448c385fa8c26c9e7f8d606ce921ba"
    )


def _output_trace(events: int) -> str:
    """Output records over 11 categories, a quality signal on every other one."""
    return "".join(
        f'{{"type":"output","category":"c{i * i % 11}","session_id":"s","timestamp":{i}'
        + (f',"quality_signal":{i % 10 / 10}' if i % 2 else "")
        + "}\n"
        for i in range(events)
    )


# (events, config) -> (exit code, report sha256): a short last window, one
# event per window, one window larger than the trace, and the default config.
WINDOW_CADENCE_DIGESTS = {
    (13, '{"window_size": 5, "k_top": 2}'): (
        0, "e265cba022d67866295522df2a61d710658bef53eec4adf6f639616809ed951b"),
    (13, '{"window_size": 1}'): (
        1, "a6a5aaabdf20511c132ebb27d2913a638631afd4e30f1962f78a225fa7410c10"),
    (13, '{"window_size": 1000000000000000000000000000000}'): (
        0, "97190c6c76016b5275160dc456c672f53eb537842ebf0b626b6f1bb83510d5b1"),
    (250, "{}"): (
        0, "39c6d40a3f8d495c8c5316c8ed22a94624aff51caf3845e5088fd324eb181564"),
}


@pytest.mark.parametrize("events, config", list(WINDOW_CADENCE_DIGESTS))
def test_report_bytes_for_window_cadences_are_pinned(tmp_path, events, config):
    trace = tmp_path / "t.jsonl"
    trace.write_text(_output_trace(events))
    (tmp_path / "c.json").write_text(config)
    report_path = tmp_path / "r.json"
    code = run_cli("evaluate", "--input", str(trace), "--config", str(tmp_path / "c.json"),
                   "--output", str(report_path))
    digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
    assert (code, digest) == WINDOW_CADENCE_DIGESTS[events, config]


# --- load_config -------------------------------------------------------------

def test_load_config_defaults_when_absent_or_empty(tmp_path):
    assert load_config(None) == EvalConfig()
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert load_config(empty) == EvalConfig()


def test_load_config_lambda_key():
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        handle.write('{"lambda": 0.5}')
        path = handle.name
    assert load_config(path).lambda_ == 0.5


def test_load_config_rejects_simplex_violation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"alpha": 0.6, "beta": 0.3, "gamma": 0.3}')
    with pytest.raises(InputError, match="alpha") as rejected:
        load_config(path)
    assert type(rejected.value) is InputError


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"thresold": 0.5}')
    with pytest.raises(InputError, match="thresold") as rejected:
        load_config(path)
    assert type(rejected.value) is InputError


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    with pytest.raises(InputError, match="JSON") as rejected:
        load_config(path)
    assert type(rejected.value) is InputError


def test_invalid_config_exits_two(tmp_path):
    trace = tmp_path / "t.jsonl"
    config_path = tmp_path / "cfg.json"
    simulate_to(trace, "fm1", "--variant", "healthy")
    config_path.write_text('{"alpha": 0.9, "beta": 0.3, "gamma": 0.3}')
    assert run_cli("evaluate", "--input", str(trace), "--config", str(config_path)) == 2


def test_report_written_atomically_no_temp_left(tmp_path):
    trace = tmp_path / "t.jsonl"
    report_path = tmp_path / "r.json"
    simulate_to(trace, "fm1", "--variant", "healthy")
    run_cli("evaluate", "--input", str(trace), "--output", str(report_path))
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".evalgate-")]
    assert leftovers == []
    assert report_path.exists()


def test_exit_code_pure_function_of_inputs(tmp_path):
    trace = tmp_path / "t.jsonl"
    simulate_to(trace, "fm3", "--seed", "9")
    codes = {run_cli("evaluate", "--input", str(trace)) for _ in range(3)}
    assert codes == {1}


# --- every failure is exit 2; bad lines are per-line parse errors ------------

def evaluate_to(trace, report_path, *extra) -> tuple[int, dict | None]:
    code = run_cli("evaluate", "--input", str(trace), "--output", str(report_path), *extra)
    return code, json.loads(report_path.read_text()) if report_path.exists() else None


def test_line_separators_inside_a_step_name_do_not_split_the_line(tmp_path):
    trace = tmp_path / "t.jsonl"
    simulate_to(trace, "fm1", "--variant", "healthy")
    with trace.open("a", encoding="utf-8") as handle:
        for name in ("a\u2028b", "c\x85d", "e\u2029f"):
            handle.write(serialize_trace_record(StepResult(1, name, 0.9)) + "\n")
    code, document = evaluate_to(trace, tmp_path / "r.json")
    assert code == 0
    assert document["record_counts"]["step"] == 8
    assert document["parse_errors"] == []


def test_invalid_utf8_line_is_one_parse_error_and_other_lines_evaluate(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    simulate_to(trace, "fm1", "--variant", "healthy")
    with trace.open("ab") as handle:
        handle.write(b'{"type":"step","step_index":1,"step_name":"\xff","confidence":0.9}\r\n')
    code, document = evaluate_to(trace, tmp_path / "r.json")
    assert code == 0
    assert document["record_counts"]["step"] == 5
    assert document["parse_errors"] == [{"line": 6, "message": "line 6: invalid UTF-8: invalid start byte"}]
    assert "Traceback" not in capsys.readouterr().err


def test_crlf_line_ends_are_accepted(tmp_path):
    trace = tmp_path / "t.jsonl"
    simulate_to(trace, "fm2", "--seed", "42")
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(trace.read_bytes().replace(b"\n", b"\r\n"))
    assert evaluate_to(crlf, tmp_path / "a.json") == evaluate_to(trace, tmp_path / "b.json")


def test_number_too_large_for_a_float_is_a_parse_error(tmp_path):
    trace = tmp_path / "t.jsonl"
    simulate_to(trace, "fm1", "--variant", "healthy")
    with trace.open("a") as handle:
        handle.write('{"type":"step","step_index":1,"step_name":"x","confidence":1' + "0" * 400 + "}\n")
    code, document = evaluate_to(trace, tmp_path / "r.json")
    assert code == 0
    assert document["record_counts"]["step"] == 5
    assert document["parse_errors"] == [{
        "line": 6,
        "message": "line 6: confidence must be finite, got an integer too large for a float",
    }]


def test_config_number_too_large_for_a_float_exits_two(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    config_path = tmp_path / "cfg.json"
    simulate_to(trace, "fm1", "--variant", "healthy")
    config_path.write_text('{"tau_u": 1' + "0" * 400 + "}")
    capsys.readouterr()
    code, document = evaluate_to(trace, tmp_path / "r.json", "--config", str(config_path))
    assert (code, document) == (2, None)
    assert capsys.readouterr().err == (
        "error: invalid config: tau_u must be finite, got an integer too large for a float\n"
    )


@pytest.mark.parametrize("text, message", [
    (b'{"tau_u": 1' + b"0" * 4_999 + b"}",
     "config {} is not valid JSON: integer has too many digits"),
    (b'{"tau_u": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
     "config {} is not valid JSON: nested too deeply"),
    (b'{"tau_u": 0.5, "k": "\xff"}', "cannot read config {}: 'utf-8' codec can't decode byte "
                                      "0xff in position 21: invalid start byte"),
], ids=["5000-digit integer", "100000-deep nesting", "0xff byte"])
def test_a_config_that_is_not_json_or_utf8_names_its_file_and_exits_two(
        tmp_path, capsys, text, message):
    trace, config_path = tmp_path / "t.jsonl", tmp_path / "cfg.json"
    simulate_to(trace, "fm1", "--variant", "healthy")
    config_path.write_bytes(text)
    capsys.readouterr()
    assert run_cli("evaluate", "--input", str(trace), "--config", str(config_path)) == 2
    assert capsys.readouterr().err == f"error: {message.format(config_path)}\n"


def test_huge_tick_is_a_parse_error_and_other_lines_evaluate(tmp_path):
    trace = tmp_path / "t.jsonl"
    simulate_to(trace, "fm2", "--seed", "42")
    expected = evaluate_to(trace, tmp_path / "before.json")
    with trace.open("a") as handle:
        handle.write('{"type":"tool_call","tool_name":"svc","state":"SUCCESS","latency_ms":1,'
                     f'"timestamp":{10**400}}}\n')
    code, document = evaluate_to(trace, tmp_path / "r.json")
    assert code == expected[0]
    assert document["dimensions"] == expected[1]["dimensions"]
    assert [e["line"] for e in document["parse_errors"]] == [len(trace.read_text().splitlines())]


def test_large_ticks_still_bucket(tmp_path):
    trace = tmp_path / "t.jsonl"
    trace.write_text("".join(
        '{"type":"tool_call","tool_name":"svc","state":"SUCCESS","latency_ms":1,'
        f'"timestamp":{tick}}}\n'
        '{"type":"output","category":"c","session_id":"s",'
        f'"timestamp":{tick},"quality_signal":0.9}}\n'
        for tick in (0, 3 * 10**21, 6 * 10**21, 9 * 10**21)
    ))
    code, document = evaluate_to(trace, tmp_path / "r.json")
    assert code == 1  # four events fill 4% of the default window
    assert document["parse_errors"] == []
    assert document["dimensions"]["TOOL"]["metadata"]["bucket_count"] == 10


def _tool_trace_with_latencies(latencies) -> str:
    return "".join(
        '{"type":"tool_call","tool_name":"svc","state":"SUCCESS",'
        f'"latency_ms":{latency!r},"timestamp":{10 * i}}}\n'
        f'{{"type":"output","category":"c{i % 3}","session_id":"s",'
        f'"timestamp":{10 * i},"quality_signal":{0.9 - 0.01 * (i % 5):.2f}}}\n'
        for i, latency in enumerate(latencies)
    )


@pytest.mark.parametrize("latencies", [
    [1.0, 1e308] * 20,  # the mean's fsum overflows
    [10.0 + i for i in range(7)] + [1e200] + [10.0 + i for i in range(32)],  # a square overflows
], ids=["fsum", "square"])
def test_latencies_near_the_float_maximum_fall_back_to_rho_zero(tmp_path, latencies):
    trace = tmp_path / "t.jsonl"
    trace.write_text(_tool_trace_with_latencies(latencies))
    code, document = evaluate_to(trace, tmp_path / "r.json")
    assert code == 0
    tool = document["dimensions"]["TOOL"]["metadata"]
    assert (tool["rho_lq"], tool["rho_fallback"]) == (0.0, "correlation overflows a float")
    assert document["evaluation_notes"] == ["tool: correlation overflows a float"]


def test_equal_latencies_give_rho_zero_when_their_mean_does_not_round_trip(tmp_path):
    # Every latency is 0.7, but fsum([0.7] * 3) / 3 != 0.7: the p95 series'
    # computed variance is about 1e-33, not 0.
    calls = [
        '{"type":"tool_call","tool_name":"svc","state":"SUCCESS","latency_ms":0.7,'
        f'"timestamp":{tick}}}\n'
        for tick in (0, 500, 1000) for _ in range(5)
    ]
    outputs = [
        f'{{"type":"output","category":"c","session_id":"s","timestamp":{tick},'
        f'"quality_signal":{quality}}}\n'
        for tick, quality in ((0, 0.9), (500, 0.5), (1000, 0.53))
    ]
    trace = tmp_path / "t.jsonl"
    trace.write_text("".join(calls + outputs))
    code, document = evaluate_to(trace, tmp_path / "r.json")
    assert code == 1  # one category: DISTRIBUTION fails
    tool = document["dimensions"]["TOOL"]["metadata"]
    assert (tool["rho_lq"], tool["bucket_count"]) == (0.0, 10)


@pytest.mark.parametrize("scenarios, weights", [
    ((("fm1", "healthy"), ("fm3", None)), {"cascade": 1.7e308, "distribution": 1.7e308}),
    ((("fm2", None), ("fm3", None)), {"tool": 1e308, "distribution": 1e308}),
])
def test_aggregate_weights_with_an_infinite_sum_exit_two(tmp_path, capsys, scenarios, weights):
    trace = tmp_path / "t.jsonl"
    parts = []
    for scenario, variant in scenarios:
        part = tmp_path / f"{scenario}.jsonl"
        simulate_to(part, scenario, *(("--variant", variant) if variant else ()))
        parts.append(part.read_text())
    trace.write_text("".join(parts))
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"aggregate_weights": weights}))
    capsys.readouterr()
    code, document = evaluate_to(trace, tmp_path / "r.json", "--config", str(config_path))
    assert (code, document) == (2, None)
    assert capsys.readouterr().err == (
        "error: invalid config: aggregate_weights must have a finite sum\n"
    )


def test_stderr_times_the_whole_run_on_the_overall_line_only(tmp_path, capsys, monkeypatch):
    trace = tmp_path / "t.jsonl"
    simulate_to(trace, "fm2")

    def slow_evaluate_stream(*args, **kwargs):
        time.sleep(0.05)
        return evaluate_stream(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_stream", slow_evaluate_stream)
    capsys.readouterr()
    assert evaluate_to(trace, tmp_path / "r.json")[0] == 1
    *dimension_lines, overall = capsys.readouterr().err.splitlines()
    assert len(dimension_lines) == 2
    assert not any(re.search(r"\bms\b", line) for line in dimension_lines)
    match = re.fullmatch(r"overall=\S+ gate=FAIL \((\d+\.\d\d) ms\)", overall)
    assert match and float(match.group(1)) >= 50


def test_output_into_missing_directory_exits_two_and_writes_nothing(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    simulate_to(trace, "fm1", "--variant", "healthy")
    capsys.readouterr()
    missing = tmp_path / "missing"
    assert run_cli("evaluate", "--input", str(trace), "--output", str(missing / "r.json")) == 2
    assert not missing.exists()
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
    assert "No such file or directory" in err_lines[0]
    assert repr(str(missing / "r.json")) in err_lines[0]  # the path asked for, not the temp file
    assert ".evalgate-" not in err_lines[0]


def test_output_onto_a_directory_exits_two_and_names_it(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    simulate_to(trace, "fm1", "--variant", "healthy")
    capsys.readouterr()
    target = tmp_path / "out"
    target.mkdir()
    assert run_cli("evaluate", "--input", str(trace), "--output", str(target)) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
    assert "Is a directory" in err_lines[0] and repr(str(target)) in err_lines[0]
    assert ".evalgate-" not in err_lines[0]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "t.jsonl"]


OUTPUT_COMMANDS = [
    ["evaluate", "--input", "t.jsonl"],
    ["simulate", "--scenario", "fm2", "--seed", "7"],
]


def fifo_bytes(fifo: Path, *argv: str) -> tuple[int, bytes]:
    """Run the CLI with `--output fifo` while a thread reads the FIFO."""
    received: list[bytes] = []
    # A daemon thread, so a writer that never opens the FIFO fails the test, not the session.
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code = run_cli(*argv, "--output", str(fifo))
    reader.join(timeout=30)
    assert not reader.is_alive()
    return code, received[0]


@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_output_onto_a_fifo_writes_into_it_and_keeps_it(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    simulate_to("t.jsonl", "fm1", "--variant", "healthy")
    assert run_cli(*command, "--output", "regular") in (0, 1)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    code, received = fifo_bytes(fifo, *command)
    assert code in (0, 1)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert received == (tmp_path / "regular").read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fifo", "regular", "t.jsonl"]


@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_an_output_name_of_250_bytes_is_written_and_leaves_no_temp(tmp_path, monkeypatch, command):
    # The temp file's name must fit NAME_MAX (255 bytes) whenever the target's does.
    monkeypatch.chdir(tmp_path)
    simulate_to("t.jsonl", "fm1", "--variant", "healthy")
    assert run_cli(*command, "--output", "regular") in (0, 1)
    name = "r" * 245 + ".json"
    assert run_cli(*command, "--output", name) in (0, 1)
    assert (tmp_path / name).read_bytes() == (tmp_path / "regular").read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted([name, "regular", "t.jsonl"])


def cli_env(unbuffered: bool = False) -> dict[str, str]:
    """The environment of a CLI subprocess: this checkout's evalgate, and
    stdout block-buffered, as it is on a pipe by default, or unbuffered."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def windowed_trace(directory: Path, events: int) -> list[str]:
    """Arguments that evaluate a trace with one DISTRIBUTION window per output
    event and a bad line after every other event, so the report grows with both."""
    trace, config = directory / "t.jsonl", directory / "c.json"
    trace.write_text("".join(
        line + ("{bad\n" if i % 2 else "")
        for i, line in enumerate(_output_trace(events).splitlines(keepends=True))
    ))
    config.write_text('{"window_size": 1}')
    return ["evaluate", "--input", str(trace), "--config", str(config)]


# Unbuffered stdout does not check a write's short count, so a single write of
# the whole output could lose the broken pipe; both modes must report it.
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["evaluate", "simulate"])
def test_a_stdout_reader_that_stops_early_gets_one_error_line_and_exit_two(
    tmp_path, command, unbuffered
):
    argv = (windowed_trace(tmp_path, 500) if command == "evaluate"
            else ["simulate", "--scenario", "fm2"])  # about 167 KB and 28 KB
    read_end, write_end = os.pipe()
    # A pipe smaller than the output, so the writer is still writing when the reader stops.
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "evalgate.cli", *argv],
        env=cli_env(unbuffered),
        stdout=write_end, stderr=subprocess.PIPE,
    )
    os.close(write_end)
    head = os.read(read_end, 100)
    os.close(read_end)
    stderr = proc.communicate(timeout=60)[1].splitlines()
    assert head and proc.returncode == 2
    assert [line for line in stderr if not line.startswith(b"parse error: ")] == [
        b"error: [Errno 32] Broken pipe"
    ]


def test_a_broken_stdout_leaves_nothing_for_interpreter_exit_to_flush():
    # Bytes still buffered when the pipe breaks would make exit's own flush
    # print "Exception ignored ... BrokenPipeError" and exit 120.
    code = (
        "import sys\n"
        "from evalgate import cli\n"
        "def emit(handle):\n"
        "    handle.write('still buffered')\n"
        "    raise BrokenPipeError(32, 'Broken pipe')\n"
        "try:\n"
        "    cli._write_atomic(None, emit)\n"
        "except BrokenPipeError:\n"
        "    sys.exit(2)\n"
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=cli_env(),
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")


SIMULATE_SPECS = (
    [("fm1", variant) for variant in FM1_VARIANTS] + [("fm2", ""), ("fm3", "")]
    + [("fm5", variant) for variant in SCENARIO_VARIANTS["fm5"]]
)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("scenario, variant", SIMULATE_SPECS)
def test_simulate_writes_the_same_lines_to_a_file_stdout_and_a_fifo(
    tmp_path, capsys, scenario, variant, seed
):
    records = generate(ScenarioSpec(scenario, seed, variant or SCENARIO_VARIANTS[scenario][0]))
    expected = "".join(serialize_trace_record(r) + "\n" for r in records)
    argv = ["simulate", "--scenario", scenario, "--seed", str(seed),
            *(["--variant", variant] if variant else [])]
    assert run_cli(*argv, "--output", str(tmp_path / "t.jsonl")) == 0
    capsys.readouterr()
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == expected
    os.mkfifo(tmp_path / "fifo")
    assert fifo_bytes(tmp_path / "fifo", *argv) == (0, expected.encode())
    assert (tmp_path / "t.jsonl").read_text(encoding="utf-8") == expected


json_scalars = (
    st.none() | st.booleans() | st.integers(-(10**40), 10**40) | st.floats() | st.text()
    | st.sampled_from([-0.0, 1e308, -1e308, 5e-324, 2**64])
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4)
    # Containers of scalars around the writer's one-call limit of 64 members,
    # and containers of scalars with an empty container among them.
    | st.sampled_from([63, 64, 65]).flatmap(
        lambda n: st.lists(json_scalars, min_size=n, max_size=n)
        | st.dictionaries(st.text(max_size=6), json_scalars, min_size=n, max_size=n))
    | st.lists(json_scalars | st.sampled_from([[], {}]), min_size=1, max_size=6)
    | st.dictionaries(st.text(max_size=6), json_scalars | st.sampled_from([[], {}]),
                      min_size=1, max_size=6),
    max_leaves=16,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(document=json_values)
def test_the_report_is_encoded_as_json_dumps_into_stdout_a_file_and_a_fifo(document):
    expected = json.dumps(document, indent=2) + "\n"
    with tempfile.TemporaryDirectory() as tmp, \
            patch.object(cli, "report_document", lambda *_: document):
        trace, report, fifo = Path(tmp, "t.jsonl"), Path(tmp, "r.json"), Path(tmp, "fifo")
        simulate_to(trace, "fm1", "--variant", "healthy")
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert run_cli("evaluate", "--input", str(trace)) == 0
        assert stdout.getvalue() == expected
        assert run_cli("evaluate", "--input", str(trace), "--output", str(report)) == 0
        assert report.read_text(encoding="utf-8") == expected
        os.mkfifo(fifo)
        assert fifo_bytes(fifo, "evaluate", "--input", str(trace)) == (0, expected.encode())


def test_a_write_that_fails_midway_keeps_the_old_report_and_leaves_no_temp(
    tmp_path, monkeypatch, capsys
):
    trace = tmp_path / "t.jsonl"
    simulate_to(trace, "fm1", "--variant", "healthy")
    target = tmp_path / "r.json"
    target.write_bytes(b"old report\n")
    written: list[int] = []

    class FailingDict(dict):
        def items(self):  # the encoder reaches this after 64 KiB of text
            written.extend(path.stat().st_size for path in tmp_path.glob(".evalgate-*"))
            raise RuntimeError("encoder failed")

    document = {"text": "x" * 65536, "late": FailingDict(key="value")}
    monkeypatch.setattr(cli, "report_document", lambda *_: document)
    capsys.readouterr()
    assert run_cli("evaluate", "--input", str(trace), "--output", str(target)) == 2
    assert len(written) == 1 and written[0] >= 65536  # part of the report had been written
    assert target.read_bytes() == b"old report\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["r.json", "t.jsonl"]
    assert capsys.readouterr().err == "error: unexpected RuntimeError: encoder failed\n"


# What writing a report may allocate on top of the evaluated state, whatever
# the report's size: the encoder's buffers and the CLI's own small objects.
WRITE_BYTES = 128 * 1024


def test_writing_a_report_of_two_megabytes_allocates_a_bounded_amount(tmp_path, monkeypatch):
    report_path = tmp_path / "r.json"
    argv = [*windowed_trace(tmp_path, 6000), "--output", str(report_path)]
    with open(tmp_path / "t.jsonl", "rb") as handle:
        evaluated = evaluate_stream(handle, load_config(tmp_path / "c.json"))
    monkeypatch.setattr(cli, "evaluate_stream", lambda *args, **kwargs: evaluated)
    assert run_cli(*argv) == 1  # first-call caches fill outside the traced run
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report_path.stat().st_size > 2_000_000
    assert peak < WRITE_BYTES

    # One list of 200k floats: no container of scalars is too long to write.
    document = {"values": [i / 7 for i in range(200_000)]}
    monkeypatch.setattr(cli, "report_document", lambda *_: document)
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report_path.read_text(encoding="utf-8") == json.dumps(document, indent=2) + "\n"
    assert peak < WRITE_BYTES


def test_a_regular_file_that_the_name_check_misses_is_still_renamed_over(tmp_path, monkeypatch):
    # A regular file put at the path after the name was checked: the opened
    # file decides, so it is replaced by a rename, never truncated in place.
    monkeypatch.chdir(tmp_path)
    simulate_to("t.jsonl", "fm1", "--variant", "healthy")
    assert run_cli("evaluate", "--input", "t.jsonl", "--output", "regular") == 0
    target = tmp_path / "out"
    target.write_text("old")
    inode = target.stat().st_ino
    is_file = os.path.isfile
    monkeypatch.setattr(os.path, "isfile", lambda path: is_file(path) and Path(path) != target)
    assert run_cli("evaluate", "--input", "t.jsonl", "--output", str(target)) == 0
    assert target.stat().st_ino != inode
    assert target.read_bytes() == (tmp_path / "regular").read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "regular", "t.jsonl"]


def test_report_mode_respects_the_umask(tmp_path):
    trace = tmp_path / "t.jsonl"
    report_path = tmp_path / "r.json"
    simulate_to(trace, "fm1", "--variant", "healthy")
    previous = os.umask(0o022)
    try:
        assert run_cli("evaluate", "--input", str(trace), "--output", str(report_path)) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(report_path.stat().st_mode) == 0o644


def _wire_lines(scenario: str, variant: str | None = None) -> list[bytes]:
    records = generate(ScenarioSpec(scenario, 42, variant or SCENARIO_VARIANTS[scenario][0]))
    return [serialize_trace_record(r).encode() for r in records[:40]]


HOSTILE_LINES = [
    b"[" * 100_000,
    b'{"type":"step","step_index":1,"step_name":"x","confidence":' + b"9" * 5000 + b"}",
    b'{"type":"step","step_index":1,"step_name":"x","confidence":1' + b"0" * 400 + b"}",
    b'{"type":"tool_call","tool_name":"t","state":"PARTIAL","latency_ms":1,"timestamp":1'
    + b"0" * 400 + b"}",
    b'{"type":"attribution","feature_names":["foo","bar"],"claimed_weights":[0.6,0.4],'
    b'"decision_value":0.5}',
    b'{"type":"step","step_index":1,"step_name":"\xff\xfe","confidence":0.5}',
    b"\xef\xbb\xbf{}",
    b"",
]
# One line per record type that names the type and is rejected, by a check or a
# missing field: a stream with one and no accepted line of its type is wholly rejected.
REJECTED_LINES = [
    b'{"type":"step","step_index":0,"step_name":"x","confidence":0.5}',
    b'{"type":"tool_call","tool_name":"t","state":"SUCCESS"}',
    b'{"type":"output","category":"","session_id":"s","timestamp":1}',
    b'{"type":"attribution","feature_names":"ab","claimed_weights":[0.6,0.4],'
    b'"decision_value":0.5}',
    b'{"type":"request_pair","request_a":"a"}',
]
byte_lines = st.one_of(
    st.sampled_from(
        _wire_lines("fm1", "low1") + _wire_lines("fm2") + _wire_lines("fm3")
        + _wire_lines("fm5", "proxy_first")
    ),
    st.sampled_from(HOSTILE_LINES + REJECTED_LINES),
    st.builds(
        lambda name, confidence: serialize_trace_record(StepResult(1, name, confidence)).encode(),
        st.text(alphabet="a\r\x85\u2028\u2029", max_size=4),
        st.floats(0.0, 1.0),
    ),
    st.binary(max_size=24),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=st.lists(byte_lines, max_size=12), strict=st.booleans())
def test_exit_code_contract(lines, strict):
    """Exit 0 or 1 iff a report was written; exit 1 iff that report failed the gate;
    exit 2 when a record type's every line was rejected."""
    with tempfile.TemporaryDirectory() as tmp:
        trace, report = Path(tmp, "t.jsonl"), Path(tmp, "r.json")
        trace.write_bytes(b"\n".join(lines))
        seen = []  # the diagnostics of a stream that evaluated

        def recording(*args, **kwargs):
            report_and_diagnostics = evaluate_stream(*args, **kwargs)
            seen.append(report_and_diagnostics[1])
            return report_and_diagnostics

        with patch.object(cli, "evaluate_stream", recording):
            code = run_cli("evaluate", "--input", str(trace), "--output", str(report),
                           *(["--strict"] if strict else []))
        assert code in (0, 1, 2)
        assert report.exists() == (code in (0, 1))
        if seen and seen[0].unscored:
            assert code == 2
        if report.exists():
            assert (code == 1) == (json.loads(report.read_text())["passed"] is False)
