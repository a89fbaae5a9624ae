"""CLI behavior: exit codes, config loading, report document, atomicity."""

from __future__ import annotations

import hashlib
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalgate.cli import ConfigError, load_config, main
from evalgate.model import EvalConfig, StepResult, serialize_trace_record
from evalgate.simulate import ScenarioSpec, default_variant, generate


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


@pytest.mark.parametrize("scenario, variant", list(REPORT_DIGESTS))
def test_report_bytes_are_pinned(tmp_path, scenario, variant):
    trace = tmp_path / "t.jsonl"
    report_path = tmp_path / "r.json"
    simulate_to(trace, scenario, "--seed", "42", *(["--variant", variant] if variant else []))
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
    with pytest.raises(ConfigError, match="alpha"):
        load_config(path)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"thresold": 0.5}')
    with pytest.raises(ConfigError, match="thresold"):
        load_config(path)


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


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
    records = generate(ScenarioSpec(scenario, seed=42, variant=variant or default_variant(scenario)))
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
byte_lines = st.one_of(
    st.sampled_from(
        _wire_lines("fm1", "low1") + _wire_lines("fm2") + _wire_lines("fm3")
        + _wire_lines("fm5", "proxy_first")
    ),
    st.sampled_from(HOSTILE_LINES),
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
    """Exit 0 or 1 iff a report was written; exit 1 iff that report failed the gate."""
    with tempfile.TemporaryDirectory() as tmp:
        trace, report = Path(tmp, "t.jsonl"), Path(tmp, "r.json")
        trace.write_bytes(b"\n".join(lines))
        code = run_cli("evaluate", "--input", str(trace), "--output", str(report),
                       *(["--strict"] if strict else []))
        assert code in (0, 1, 2)
        assert report.exists() == (code in (0, 1))
        if report.exists():
            assert (code == 1) == (json.loads(report.read_text())["passed"] is False)
