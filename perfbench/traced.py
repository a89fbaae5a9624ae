"""Traced in-process run of one evalgate evaluation.

Run as a child process of run.py, so its ru_maxrss is its own:

    PYTHONPATH=src python3 perfbench/traced.py --input T --output R --spans S \
        --spawned-at MONOTONIC [--config C]

It repeats what ``evalgate evaluate`` does, one layer at a time, with a span
around each call into a module's functions: load_config, read, parse,
evaluate_records, serialize, write. While its evaluate_records call runs, the
names through which the evaluator calls each dimension's code are wrapped in
spans (DIMENSION_CALLS), so the dimension spans nest inside that call and
what is left of it is routing. The whole runs REPEATS times and run.py takes
the median of each span; ru_maxrss is sampled after each span of the first
repeat. Last, ``evaluate_stream`` + ``report_document``, unwrapped, must give
the same bytes. Spans stay in memory and are written to --spans at exit."""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

import evalgate
from evalgate import evaluator
from evalgate.cli import load_config, report_document
from evalgate.consistency import HashEmbeddingProvider
from evalgate.evaluator import (
    StreamDiagnostics,
    evaluate_records,
    evaluate_stream,
    split_pipelines,
)
from evalgate.explanation import ProbeContext
from evalgate.model import StepResult, TraceParseError, ValidationError, parse_trace_record
from evalgate.simulate import FM5_BASELINE_VALUES, FM5_ORIGINAL_VALUES, reference_probe

REPEATS = 3
# The module-level names of evalgate.evaluator that evaluate_records calls for
# each dimension, and the layer each is timed as. TOOL's metadata() and
# CONSISTENCY's metadata() run outside these calls and count as routing.
DIMENSION_CALLS = (
    ("_evaluate_cascade_dimension", "cascade"),
    ("_quality_series_for_calls", "reliability"),
    ("evaluate_reliability", "reliability"),
    ("_evaluate_distribution_dimension", "distribution"),
    ("_evaluate_explanation_dimension", "explanation"),
    ("consistency_score", "consistency"),
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans (name, parent, repeat, start and end in ms), plus counts
    recorded at the same boundaries and each wrapped layer's last return."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.repeat = 0
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, float] = {}
        self.rss_mb: dict[str, float] = {}
        self.returns: dict[str, Any] = {}

    def _now_ms(self) -> float:
        return (time.perf_counter() - self.origin) * 1000.0

    @contextmanager
    def span(self, name: str, parent: str | None = None) -> Iterator[None]:
        start = self._now_ms()
        try:
            yield
        finally:
            self.spans.append({"name": name, "parent": parent, "repeat": self.repeat,
                               "start_ms": start, "end_ms": self._now_ms()})
            self.rss_mb.setdefault(name, _rss_mb())


class CountingProvider:
    """Embedding provider wrapper that counts calls and distinct texts."""

    def __init__(self, inner: HashEmbeddingProvider):
        self.inner = inner
        self.dimension = inner.dimension
        self.calls = 0
        self.texts: set[str] = set()

    def embed(self, text: str) -> list[float]:
        self.calls += 1
        self.texts.add(text)
        return self.inner.embed(text)


@contextmanager
def dimension_spans(tracer: Tracer) -> Iterator[None]:
    """Wrap the evaluator's per-dimension calls in spans, nested in
    evaluator.evaluate_records, and keep each layer's last return value."""
    originals = {name: getattr(evaluator, name) for name, _ in DIMENSION_CALLS}

    def timed(function, layer: str):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with tracer.span(layer, "evaluator.evaluate_records"):
                result = function(*args, **kwargs)
            tracer.returns[layer] = result
            return result
        return wrapper

    try:
        for name, layer in DIMENSION_CALLS:
            setattr(evaluator, name, timed(originals[name], layer))
        yield
    finally:
        for name, function in originals.items():
            setattr(evaluator, name, function)


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".perfbench-")
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp_name, path)


def run_pipeline(tracer: Tracer, args: argparse.Namespace, probe_context: ProbeContext):
    """The CLI's evaluate path, one span per layer, and the counts recorded at
    the same boundaries."""
    with tracer.span("pipeline"):
        with tracer.span("cli.load_config", "pipeline"):
            config = load_config(args.config)
        with tracer.span("cli.read", "pipeline"):
            lines = Path(args.input).read_text(encoding="utf-8").splitlines()
        with tracer.span("model.parse", "pipeline"):
            records = []
            parse_errors = []
            for number, line in enumerate(lines, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    records.append(parse_trace_record(stripped, number))
                except (TraceParseError, ValidationError) as exc:
                    parse_errors.append({"line": number, "message": str(exc)})
        diagnostics = StreamDiagnostics(parse_errors=parse_errors)
        provider = CountingProvider(HashEmbeddingProvider())
        with tracer.span("evaluator.evaluate_records", "pipeline"), dimension_spans(tracer):
            report = evaluate_records(records, config, probe_context=probe_context,
                                      embedding_provider=provider, diagnostics=diagnostics)
        with tracer.span("cli.serialize", "pipeline"):
            text = json.dumps(report_document(report, config, diagnostics), indent=2) + "\n"
        with tracer.span("cli.write", "pipeline"):
            _write_atomic(Path(args.output), text)
    main_end = time.monotonic()

    # Time the reject path alone: the same calls again, on the rejected lines only.
    with tracer.span("model.reject"):
        for error in parse_errors:
            try:
                parse_trace_record(lines[error["line"] - 1].strip(), error["line"])
            except (TraceParseError, ValidationError):
                pass
    counts = diagnostics.record_counts
    distribution = tracer.returns.get("distribution")
    tracer.counts.update({
        "lines": len(lines), "parse_ok": len(records), "parse_rejected": len(parse_errors),
        "report_bytes": len(text.encode("utf-8")),
        "cascade.pipelines": len(split_pipelines([r for r in records
                                                  if isinstance(r, StepResult)])),
        "reliability.calls": counts["tool_call"],
        "distribution.windows": len(distribution[2]["windows"]) if distribution else 0,
        "distribution.events": counts["output"],
        "explanation.cases": counts["attribution"],
        "consistency.pairs": counts["request_pair"],
        "consistency.embed_calls": provider.calls,
        "consistency.distinct_texts": len(provider.texts),
    })
    return config, lines, text, main_end


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True)
    parser.add_argument("--config", default=None)
    parser.add_argument("--output", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() at spawn, to time the run from spawn")
    args = parser.parse_args()

    tracer = Tracer()
    # Built the way cmd_evaluate builds it; outside the layer spans.
    probe_context = ProbeContext(probe=reference_probe(), original_values=FM5_ORIGINAL_VALUES,
                                 baseline_values=FM5_BASELINE_VALUES)
    write_ends = []
    for repeat in range(REPEATS):
        tracer.repeat = repeat
        config, lines, text, main_end = run_pipeline(tracer, args, probe_context)
        write_ends.append(main_end)

    report, diagnostics = evaluate_stream(lines, config, probe_context=probe_context)
    stream_text = json.dumps(report_document(report, config, diagnostics), indent=2) + "\n"

    result = {
        "evalgate_file": evalgate.__file__,
        "evaluate_stream_matches": stream_text == text,
        "spawn_to_write_ms": (write_ends[0] - args.spawned_at) * 1000.0,
        "repeats": REPEATS,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "rss_mb": tracer.rss_mb,
    }
    Path(args.spans).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
