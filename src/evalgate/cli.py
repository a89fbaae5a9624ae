"""Command-line entry points: trace evaluation with a CI gate, and the
scenario simulator.

Exit codes: 0 when the gate passes, 1 when it fails, 2 on any error (input,
configuration, output, a record type whose every line was rejected, or an
unexpected exception). The report holds no wall-clock value, so it is the same
for the same input and config bytes. Its text, json.dump's with indent=2, is
encoded into its output a part at a time, never held whole in memory: a temp
file then a rename, so exit 2 leaves none, or a FIFO, device or stdout,
written in place, which may get part of one. Timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import stat
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any, TextIO

from .evaluator import StreamDiagnostics, evaluate_stream
from .explanation import ProbeContext
from .model import (CONFIG_FIELDS, EvalConfig, EvalReport, EvaluationError, InputError,
                    ValidationError, _echo, json_rejection, serialize_trace_record)
from .simulate import (
    FM5_BASELINE_VALUES,
    FM5_ORIGINAL_VALUES,
    SCENARIOS,
    ScenarioSpec,
    generate,
    reference_probe,
)

EXIT_PASS = 0
EXIT_GATE_FAILED = 1
EXIT_ERROR = 2
# Parse errors printed to stderr; the report lists all of them.
STDERR_PARSE_ERRORS = 20


def load_config(path: str | Path | None) -> EvalConfig:
    """Read a JSON config file, applying defaults for absent keys."""
    if path is None:
        return EvalConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not text.strip():
        return EvalConfig()
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"config {path} is not valid JSON: {json_rejection(exc)}") from None
    if not isinstance(payload, dict):
        raise InputError(f"config {path} must be a JSON object")

    for key in payload:
        if key not in CONFIG_FIELDS:
            raise InputError(f"unknown config key {_echo(key)}")
    try:
        return EvalConfig(**{CONFIG_FIELDS[key].name: value for key, value in payload.items()})
    except ValidationError as exc:
        raise InputError(f"invalid config: {exc}") from exc


def report_document(
    report: EvalReport, config: EvalConfig, diagnostics: StreamDiagnostics
) -> dict[str, Any]:
    """The serialized report: resolved config, per-dimension results with
    metadata, the aggregate verdict, and parse diagnostics. No timing fields,
    so the document is byte-stable across runs."""
    return {
        "config": config.to_payload(),
        "dimensions": {dim.value: result._asdict() for dim, result in report.per_dimension.items()},
        "overall_score": report.overall_score,
        "passed": report.passed,
        "record_counts": diagnostics.record_counts,
        "parse_errors": diagnostics.parse_errors,
        "evaluation_notes": diagnostics.evaluation_notes,
    }


_FLAT_MEMBERS = 64  # the most members of a container encoded in one call
_SCALARS = {str, int, float, bool, type(None)}


def _dump(document: Any, write: Callable[[str], object]) -> None:
    """Write json.dump(document, handle, indent=2)'s text and a newline, a part at a time.

    A container of at most _FLAT_MEMBERS members, none of them a container, is
    one call of json's C encoder, whose item separator carries the newline and
    the indentation (an encoded string never holds a raw newline); any other
    container is written member by member.
    """
    encoders: list[Callable[[Any, int], list[str]]] = []  # one per indentation level

    def encode(value: Any, level: int) -> str:
        while len(encoders) <= level:
            encoders.append(json.encoder.c_make_encoder(  # type: ignore[attr-defined]
                None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
                None, ": ", ",\n" + "  " * len(encoders), False, False, True))
        return encoders[level](value, 0)[0]

    def dump(value: Any, level: int) -> None:
        is_dict = isinstance(value, dict)
        if not is_dict and not isinstance(value, (list, tuple)):
            write(encode(value, level))
            return
        (opening, closing), members = ("{}", value.values()) if is_dict else ("[]", value)
        inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
        if not value:
            write(opening + closing)
        elif len(value) <= _FLAT_MEMBERS and {*map(type, members)} <= _SCALARS:
            write(opening + inner + encode(value, level + 1)[1:-1] + outer + closing)
        else:
            separator = opening + inner
            for key, member in value.items() if is_dict else enumerate(value):
                # '{"key": null}' less its brace and 'null}' is the key as json writes it
                write(separator + encode({key: None}, 0)[1:-5] if is_dict else separator)
                dump(member, level + 1)
                separator = "," + inner
            write(outer + closing)

    dump(document, 0)
    write("\n")


def _write_atomic(path: str | None, emit: Callable[[TextIO], object]) -> None:
    """Call `emit` on the handle that `path` (stdout when None) names."""
    if path is None:
        try:
            emit(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader left: let exit's flush write nowhere, not fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise
        return
    target = Path(path)
    try:
        if os.path.exists(target) and not os.path.isfile(target):
            # A rename would replace a FIFO or device; the file opened decides, not the name.
            with open(os.open(target, os.O_WRONLY), "w", encoding="utf-8") as handle:
                if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                    emit(handle)
                    return
        # A bounded share of the name keeps the temp name under NAME_MAX (255 bytes).
        tmp = target.with_name(f".evalgate-{os.urandom(6).hex()}-{target.name[:32]}")
        # Mode "x" applies the umask, like any new file, and never follows a link.
        handle = open(tmp, "x", encoding="utf-8")
        try:
            with handle:
                emit(handle)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:  # name the path asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    probe_context = ProbeContext(reference_probe(), FM5_ORIGINAL_VALUES, FM5_BASELINE_VALUES)
    start = time.perf_counter()
    with open(args.input, "rb") as trace:
        report, diagnostics = evaluate_stream(trace, config, probe_context=probe_context)

    for issue in diagnostics.parse_errors[:STDERR_PARSE_ERRORS]:
        print(f"parse error: {issue['message']}", file=sys.stderr)
    if len(diagnostics.parse_errors) > STDERR_PARSE_ERRORS:
        more = len(diagnostics.parse_errors) - STDERR_PARSE_ERRORS
        print(f"parse error: ... and {more} more; all are listed in the report", file=sys.stderr)
    for name, dimension in diagnostics.unscored.items():
        print(f"error: {name}: {diagnostics.rejected_counts[name]} line(s) rejected, none "
              f"accepted; {dimension.value} not scored [parse.type_rejected]", file=sys.stderr)
    if args.strict and diagnostics.parse_errors:
        count = len(diagnostics.parse_errors)
        print(f"error: --strict and {count} line(s) failed to parse", file=sys.stderr)
        return EXIT_ERROR
    if diagnostics.unscored:
        return EXIT_ERROR

    document = report_document(report, config, diagnostics)
    _write_atomic(args.output, lambda handle: _dump(document, handle.write))
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    for dim, result in report.per_dimension.items():
        verdict = "pass" if result.passed else "FAIL"
        print(
            f"{dim.value:<12} score={result.score:.4f} "
            f"threshold={config.threshold(dim):.2f} [{verdict}]",
            file=sys.stderr,
        )
    print(
        f"overall={report.overall_score:.4f} gate={'pass' if report.passed else 'FAIL'} "
        f"({elapsed_ms:.2f} ms)",
        file=sys.stderr,
    )
    return EXIT_PASS if report.passed else EXIT_GATE_FAILED


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = ScenarioSpec(scenario=args.scenario, seed=args.seed, variant=args.variant)
    records = generate(spec)
    _write_atomic(
        args.output,
        lambda handle: handle.writelines(serialize_trace_record(r) + "\n" for r in records),
    )
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
    sim.add_argument("--variant", default="", help="scenario variant, where applicable")
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--output", default=None, help="trace path (default: stdout)")
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:  # process entry: collections and exit skip the start-up heap
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, EvaluationError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
    except Exception as exc:  # a defect: still one stderr line and exit 2, never a traceback
        text = f": {exc}" if str(exc) else ""
        print(f"error: unexpected {type(exc).__name__}{text}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
