"""Command-line entry points: trace evaluation with a CI gate, and the
scenario simulator.

Exit codes: 0 when the gate passes, 1 when it fails, 2 on any error (input,
configuration, output, or an unexpected exception); exit 2 writes no report.
The report document is deterministic for a given (input bytes, config
bytes): it contains no wall-clock values, and writes are atomic (temp file
then rename). Timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any

from .evaluator import StreamDiagnostics, evaluate_stream
from .explanation import ProbeContext
from .model import EvalConfig, EvalReport, EvaluationError, ValidationError, serialize_trace_record
from .simulate import (
    FM5_BASELINE_VALUES,
    FM5_ORIGINAL_VALUES,
    SCENARIOS,
    ScenarioSpec,
    default_variant,
    generate,
    reference_probe,
)

EXIT_PASS = 0
EXIT_GATE_FAILED = 1
EXIT_ERROR = 2
# Parse errors printed to stderr; the report lists all of them.
STDERR_PARSE_ERRORS = 20


class ConfigError(ValueError):
    pass


def load_config(path: str | Path | None) -> EvalConfig:
    """Read a JSON config file, applying defaults for absent keys."""
    if path is None:
        return EvalConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not text.strip():
        return EvalConfig()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must be a JSON object")

    known = {f.name.rstrip("_"): f.name for f in fields(EvalConfig)}
    for key in payload:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    try:
        return EvalConfig(**{known[key]: value for key, value in payload.items()})
    except ValidationError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def report_document(
    report: EvalReport, config: EvalConfig, diagnostics: StreamDiagnostics
) -> dict[str, Any]:
    """The serialized report: resolved config, per-dimension results with
    metadata, the aggregate verdict, and parse diagnostics. No timing fields,
    so the document is byte-stable across runs."""
    return {
        "config": config.to_payload(),
        "dimensions": {
            dim.value: {
                "score": result.score,
                "confidence": result.confidence,
                "passed": result.passed,
                "metadata": result.metadata,
            }
            for dim, result in report.per_dimension.items()
        },
        "overall_score": report.overall_score,
        "passed": report.passed,
        "record_counts": diagnostics.record_counts,
        "parse_errors": diagnostics.parse_errors,
        "evaluation_notes": diagnostics.evaluation_notes,
    }


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    target = Path(path)
    tmp = target.with_name(f".evalgate-{os.urandom(6).hex()}-{target.name}")
    # Mode "x" applies the umask, like any new file, and never follows a link.
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    probe_context = ProbeContext(reference_probe(), FM5_ORIGINAL_VALUES, FM5_BASELINE_VALUES)
    with open(args.input, "rb") as trace:
        report, diagnostics = evaluate_stream(trace, config, probe_context=probe_context)

    for issue in diagnostics.parse_errors[:STDERR_PARSE_ERRORS]:
        print(f"parse error: {issue['message']}", file=sys.stderr)
    if len(diagnostics.parse_errors) > STDERR_PARSE_ERRORS:
        more = len(diagnostics.parse_errors) - STDERR_PARSE_ERRORS
        print(f"parse error: ... and {more} more; all are listed in the report", file=sys.stderr)
    if args.strict and diagnostics.parse_errors:
        count = len(diagnostics.parse_errors)
        print(f"error: --strict and {count} line(s) failed to parse", file=sys.stderr)
        return EXIT_ERROR

    document = json.dumps(report_document(report, config, diagnostics), indent=2) + "\n"
    _write_atomic(args.output, document)

    for dim, result in report.per_dimension.items():
        verdict = "pass" if result.passed else "FAIL"
        print(
            f"{dim.value:<12} score={result.score:.4f} "
            f"threshold={config.threshold(dim):.2f} [{verdict}] "
            f"({result.latency_ms:.2f} ms)",
            file=sys.stderr,
        )
    print(
        f"overall={report.overall_score:.4f} gate={'pass' if report.passed else 'FAIL'} "
        f"({report.total_latency_ms:.2f} ms)",
        file=sys.stderr,
    )
    return EXIT_PASS if report.passed else EXIT_GATE_FAILED


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = ScenarioSpec(
        scenario=args.scenario,
        seed=args.seed,
        variant=args.variant or default_variant(args.scenario),
    )
    records = generate(spec)
    text = "".join(serialize_trace_record(r) + "\n" for r in records)
    _write_atomic(args.output, text)
    print(f"wrote {len(records)} records for {spec.scenario}", file=sys.stderr)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evalgate",
        description="Evaluate agentic-system traces and gate CI on the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="score a trace file and emit the gate verdict")
    ev.add_argument("--input", required=True, help="line-delimited trace file")
    ev.add_argument("--config", default=None, help="JSON config file (defaults apply)")
    ev.add_argument("--output", default=None, help="report path (default: stdout)")
    ev.add_argument(
        "--strict", action="store_true", help="treat any parse error as a run failure"
    )
    ev.set_defaults(func=cmd_evaluate)

    sim = sub.add_parser("simulate", help="generate a seeded failure-scenario trace")
    sim.add_argument("--scenario", required=True, choices=SCENARIOS)
    sim.add_argument("--variant", default=None, help="scenario variant, where applicable")
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--output", default=None, help="trace path (default: stdout)")
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception as exc:  # a defect: still one stderr line and exit 2, never a traceback
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
