"""CLI behavior: exit codes, config loading, report document, atomicity."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from evalgate.cli import ConfigError, load_config, main
from evalgate.model import EvalConfig


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
