"""evalgate benchmark: time-to-verdict, throughput and peak memory of
``evalgate evaluate`` on seeded traces, plus a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0

One run:
  1. generates the workload's trace and known answers from --seed
     (tracegen.py) into .perfbench_work/<workload>/, plus a minimal trace of
     SETUP_LINES lines for the set-up measurement;
  2. closed loop, one client, for --seconds (at least MIN_REPS rounds). Each
     round runs, one process at a time: the calibration job (calibrate.py)
     on the workload trace, ``evalgate evaluate`` on the minimal trace
     (set-up), and ``evalgate evaluate`` on the workload trace. Each CLI run is timed from spawn to
     exit; its own ru_maxrss and CPU time are read with os.wait4 on that
     child. Wall times are divided by the calibration of their round and
     reported as seconds on the reference host (see calibrate.py);
  3. traced run: one traced.py child repeats the evaluation in-process with
     a span per layer, three times, and writes the in-process report bytes;
  4. checks every CLI run: exit code in {0,1} and equal to the report's
     verdict, report bytes equal to the in-process bytes (so identical across
     repetitions), and record counts, parse-error line numbers, tool state
     counts, agreement rate and window count equal the known answers.

It prints every metric by name with its unit, then, as its last line, one
JSON object: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. It reads and writes only inside the checkout it runs from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import tracegen

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# Sized so one CLI run takes about 1 s on the reference host: a 25 s run
# then holds about 14 or more rounds. Many short rounds gave half the spread of a
# few long ones, because each CLI run sits closer in time to its calibration.
WORKLOAD_LINES = {"ingest": 100_000, "semantic": 6_000, "noisy-all5": 16_000}
SETUP_LINES = 12
MIN_REPS = 5
# Median wall time of calibrate.py on each workload's trace on the reference
# host (2 vCPU Xeon at 2.1 GHz, Python 3.11.7). Timings are reported as if
# on that host.
CALIBRATION_REFERENCE_S = {"ingest": 0.50, "semantic": 0.42, "noisy-all5": 0.39}

CLI_MAIN = "import sys; from evalgate.cli import main; sys.exit(main())"

# Per-dimension spans, nested in the traced run's evaluate_records span.
DIMENSIONS = ("cascade", "reliability", "distribution", "explanation", "consistency")
# The layers each workload was chosen to load, printed with their summed
# share of the traced total next to the largest other layer.
LOADS = {
    "ingest": ("model", "cli.read"),
    "semantic": ("consistency", "explanation"),
    "noisy-all5": ("model", "distribution", "cli.serialize"),
}

END_TO_END_UNITS = {"records_per_s": "lines/s", "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class CliRun:
    wall_s: float
    exit_code: int
    max_rss_mb: float
    cpu_s: float
    report_sha256: str | None


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn_and_wait(argv: list[str], stderr_path: Path) -> tuple[float, int, Any]:
    """Spawn argv with stdout discarded and stderr to a file; wait for that
    child alone. Returns (wall seconds, exit code, its rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, _env(), file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage


def _run_helper(argv: list[str], stderr_path: Path) -> float:
    """Run one of the benchmark's own scripts; raise if it fails."""
    wall, code, _ = _spawn_and_wait([sys.executable, *argv], stderr_path)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}: {stderr_path.read_text()[-2000:]}")
    return wall


def run_cli(trace: Path, config: Path | None, report: Path) -> CliRun:
    argv = [sys.executable, "-c", CLI_MAIN, "evaluate", "--input", str(trace),
            "--output", str(report)]
    if config is not None:
        argv += ["--config", str(config)]
    if report.exists():
        report.unlink()
    wall, code, usage = _spawn_and_wait(argv, report.with_suffix(".stderr"))
    sha = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
    return CliRun(wall, code, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, sha)


def calibrate(trace: Path) -> float:
    """Wall seconds of one run of the calibration job on ``trace``."""
    return _run_helper([str(ROOT / "perfbench" / "calibrate.py"), str(trace)],
                       trace.with_suffix(".calibrate.stderr"))


def normalized_seconds(runs: list[CliRun], calibrations: list[float], reference_s: float) -> float:
    """Median CLI wall seconds on a host where the calibration job takes
    ``reference_s``: each run is divided by its round's calibration."""
    ratios = [r.wall_s / c for r, c in zip(runs, calibrations, strict=True)]
    return statistics.median(ratios) * reference_s


def generate(workload: str, seed: int, lines: int, prefix: Path) -> tuple[Path, Path | None, dict]:
    """Write a trace with tracegen in a child process, so this process never
    holds it: a spawned child's ru_maxrss starts at its parent's RSS.
    Returns (trace path, config path or None, known answers)."""
    _run_helper([str(ROOT / "perfbench" / "tracegen.py"), workload, str(seed), str(lines),
                 str(prefix)], prefix.with_suffix(".stderr"))
    config = prefix.with_suffix(".config.json")
    answers = json.loads(prefix.with_suffix(".answers.json").read_text())
    return prefix.with_suffix(".jsonl"), config if config.exists() else None, answers


def answer_mismatches(document: dict[str, Any], answers: dict[str, Any]) -> list[str]:
    """Differences between a report document and the generator's answers."""
    problems = []
    dims = document.get("dimensions", {})
    if document.get("record_counts") != answers["record_counts"]:
        problems.append(f"record_counts {document.get('record_counts')} != {answers['record_counts']}")
    lines = [e["line"] for e in document.get("parse_errors", [])]
    if lines != answers["bad_lines"]:
        problems.append(f"parse_errors at {len(lines)} lines != {len(answers['bad_lines'])} injected")
    tool = dims.get("TOOL", {}).get("metadata", {})
    if answers["record_counts"]["tool_call"] and tool.get("call_counts") != answers["call_counts"]:
        problems.append(f"call_counts {tool.get('call_counts')} != {answers['call_counts']}")
    if answers["pairs"]:
        expected = answers["agreeing_pairs"] / answers["pairs"]
        got = dims.get("CONSISTENCY", {}).get("metadata", {}).get("agreement_rate")
        if got != expected:
            problems.append(f"agreement_rate {got} != {expected}")
    windows = dims.get("DISTRIBUTION", {}).get("metadata", {}).get("windows", [])
    if len(windows) != answers["windows"]:
        problems.append(f"{len(windows)} windows != {answers['windows']}")
    return problems


def check_runs(runs: list[CliRun], document: dict[str, Any], expected_sha: str | None,
               answers: dict[str, Any]) -> tuple[int, list[str]]:
    """Count the runs that fail any output check: exit code against the
    document's verdict, report bytes against ``expected_sha``, and the
    document against the known answers (which fails every run)."""
    problems = answer_mismatches(document, answers)
    expected_code = 0 if document.get("passed") else 1
    failed = 0
    for i, run in enumerate(runs):
        bad = []
        if run.exit_code != expected_code:
            bad.append(f"exit code {run.exit_code}, report passed={document.get('passed')}")
        if run.report_sha256 is None or run.report_sha256 != expected_sha:
            bad.append(f"report sha256 {run.report_sha256} != {expected_sha}")
        if bad or problems:
            failed += 1
        problems += [f"run {i}: {b}" for b in bad]
    return failed, problems


def run_traced(trace: Path, config: Path | None, directory: Path) -> dict[str, Any]:
    spans = directory / "spans.json"
    argv = [str(ROOT / "perfbench" / "traced.py"), "--input", str(trace),
            "--output", str(directory / "inprocess.report.json"), "--spans", str(spans),
            "--spawned-at", repr(time.monotonic())]
    if config is not None:
        argv += ["--config", str(config)]
    _run_helper(argv, directory / "traced.stderr")
    return json.loads(spans.read_text(encoding="utf-8"))


def layer_metrics(traced: dict[str, Any], cli_wall_ms: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from the traced run's spans, each the
    median over the traced run's repeats of the span's summed time in one
    repeat (0 for a dimension the workload lacks), and its counts."""
    per_repeat: list[defaultdict[str, float]] = [defaultdict(float)
                                                 for _ in range(traced["repeats"])]
    for span in traced["spans"]:
        per_repeat[span["repeat"]][span["name"]] += span["end_ms"] - span["start_ms"]
    names = {span["name"] for span in traced["spans"]} | set(DIMENSIONS)
    ms = {name: statistics.median(r[name] for r in per_repeat) for name in names}

    def remainder(whole: str, parts: list[str]) -> float:
        """Median over repeats of one span minus its parts in the same repeat."""
        return statistics.median(r[whole] - sum(r[p] for p in parts) for r in per_repeat)

    counts = traced["counts"]
    total = ms["pipeline"]
    main = list(dict.fromkeys(s["name"] for s in traced["spans"] if s["parent"] == "pipeline"))
    route_ms = remainder("evaluator.evaluate_records", list(DIMENSIONS))
    lines, rejected = counts["lines"], counts["parse_rejected"]

    def per(total_ms: float, n: float) -> float:
        return total_ms * 1000.0 / n if n else 0.0

    m: dict[str, tuple[float, str]] = {
        "cli.load_config_ms": (ms["cli.load_config"], "ms"),
        "cli.read_ms": (ms["cli.read"], "ms"),
        "cli.serialize_ms": (ms["cli.serialize"], "ms"),
        "cli.write_ms": (ms["cli.write"], "ms"),
        "cli.report_bytes": (counts["report_bytes"], "bytes"),
        "model.parse_ms": (ms["model.parse"], "ms"),
        "model.parse_us_per_line": (per(ms["model.parse"], lines), "us"),
        "model.parse_ok": (counts["parse_ok"], "count"),
        "model.parse_rejected": (rejected, "count"),
        "model.rejected_us_per_line": (per(ms["model.reject"], rejected), "us"),
        "evaluator.evaluate_records_ms": (ms["evaluator.evaluate_records"], "ms"),
        "evaluator.route_ms": (route_ms, "ms"),
        "cascade.ms": (ms["cascade"], "ms"),
        "cascade.pipelines": (counts["cascade.pipelines"], "count"),
        "cascade.us_per_pipeline": (per(ms["cascade"], counts["cascade.pipelines"]), "us"),
        "reliability.ms": (ms["reliability"], "ms"),
        "reliability.calls": (counts["reliability.calls"], "count"),
        "distribution.ms": (ms["distribution"], "ms"),
        "distribution.windows": (counts["distribution.windows"], "count"),
        "distribution.us_per_event": (per(ms["distribution"], counts["distribution.events"]), "us"),
        "explanation.ms": (ms["explanation"], "ms"),
        "explanation.cases": (counts["explanation.cases"], "count"),
        "explanation.us_per_case": (per(ms["explanation"], counts["explanation.cases"]), "us"),
        "consistency.ms": (ms["consistency"], "ms"),
        "consistency.pairs": (counts["consistency.pairs"], "count"),
        "consistency.us_per_pair": (per(ms["consistency"], counts["consistency.pairs"]), "us"),
        "consistency.embed_calls": (counts["consistency.embed_calls"], "count"),
        "consistency.distinct_text_ratio": (
            counts["consistency.distinct_texts"] / counts["consistency.embed_calls"]
            if counts["consistency.embed_calls"] else 0.0, "fraction"),
    }
    for name in main:
        m[f"{name}.rss_mb"] = (traced["rss_mb"][name], "MiB")
    m["traced.total_ms"] = (total, "ms")
    m["traced.unattributed_ms"] = (remainder("pipeline", main), "ms")
    m["traced.overhead_ms"] = (traced["spawn_to_write_ms"] - cli_wall_ms, "ms")
    layers = {
        "cli.load_config": ms["cli.load_config"], "cli.read": ms["cli.read"],
        "model": ms["model.parse"], "evaluator": route_ms,
        "cli.serialize": ms["cli.serialize"], "cli.write": ms["cli.write"],
        **{d: ms[d] for d in DIMENSIONS},
    }
    for layer, layer_ms in layers.items():
        m[f"{layer}.share"] = (layer_ms / total, "fraction")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="evalgate benchmark")
    parser.add_argument("--workload", required=True, choices=tracegen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evalgate" / "cli.py").is_file():
        print(f"error: no evalgate source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    directory = WORK / args.workload
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)

    lines = WORKLOAD_LINES[args.workload]
    trace_path, config_path, answers = generate(args.workload, args.seed, lines,
                                                directory / "trace")
    setup_path, setup_config, setup_answers = generate(args.workload, args.seed, SETUP_LINES,
                                                       directory / "setup")

    setup_report = directory / "setup.report.json"
    report = directory / "report.json"
    calibrate(trace_path)
    setup_runs = [run_cli(setup_path, setup_config, setup_report)]  # warm-up, not timed
    runs: list[CliRun] = []
    calibrations: list[float] = []
    loop_start = time.perf_counter()
    while len(runs) < MIN_REPS or time.perf_counter() - loop_start < args.seconds:
        calibrations.append(calibrate(trace_path))
        setup_runs.append(run_cli(setup_path, setup_config, setup_report))
        runs.append(run_cli(trace_path, config_path, report))

    traced = run_traced(trace_path, config_path, directory)
    reference = directory / "inprocess.report.json"
    reference_sha = hashlib.sha256(reference.read_bytes()).hexdigest()

    setup_document = json.loads(setup_report.read_text()) if setup_report.exists() else {}
    setup_failed, setup_problems = check_runs(setup_runs, setup_document,
                                              setup_runs[0].report_sha256, setup_answers)
    failed, problems = check_runs(runs, json.loads(reference.read_text()), reference_sha,
                                  answers)
    problems = [f"setup {p}" for p in setup_problems] + problems
    if traced["counts"]["distribution.windows"] != answers["windows"]:
        problems.append(f"traced run saw {traced['counts']['distribution.windows']} windows "
                        f"!= {answers['windows']}")
    if not traced["evaluate_stream_matches"]:
        problems.append("traced pipeline bytes differ from evaluate_stream bytes")
    if not Path(traced["evalgate_file"]).resolve().is_relative_to(ROOT / "src"):
        problems.append(f"evalgate imported from {traced['evalgate_file']}, not this checkout")
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if own_rss_mb >= min(r.max_rss_mb for r in runs):
        problems.append(f"this process's {own_rss_mb:.1f} MiB RSS hides the CLI's ru_maxrss")
    attempted = len(setup_runs) + len(runs)
    failed += setup_failed

    wall_ms = statistics.median(r.wall_s for r in runs) * 1000.0
    calibration_s = statistics.median(calibrations)
    reference_s = CALIBRATION_REFERENCE_S[args.workload]
    end_to_end = {
        "records_per_s": lines / normalized_seconds(runs, calibrations, reference_s),
        "peak_rss_mb": statistics.median(r.max_rss_mb for r in runs),
        "setup_s": normalized_seconds(setup_runs[1:], calibrations, reference_s),
    }
    per_layer = layer_metrics(traced, wall_ms)
    per_layer["process.cpu_s"] = (statistics.median(r.cpu_s for r in runs), "s")
    per_layer["process.wall_ms"] = (wall_ms, "ms")
    per_layer["process.calibration_s"] = (calibration_s, "s")
    # The set-up run's peak is the fixed floor (interpreter, imports, config);
    # what the workload's trace adds to the peak is the growth above it.
    setup_rss_mb = statistics.median(r.max_rss_mb for r in setup_runs[1:])
    per_layer["process.setup_rss_mb"] = (setup_rss_mb, "MiB")
    per_layer["process.rss_growth_mb"] = (end_to_end["peak_rss_mb"] - setup_rss_mb, "MiB")

    w = args.workload
    for problem in problems:
        print(f"{w} CHECK FAILED: {problem}")
    print(f"{w} lines {lines}, {len(runs)} rounds, median wall {wall_ms:.1f} ms "
          f"({lines / wall_ms * 1000.0:.0f} lines/s before calibration), median calibration "
          f"{calibration_s:.4f} s (reference {reference_s} s)")
    print(f"{w} report sha256 {reference_sha}")
    print(f"{w} error_rate {failed / attempted} fraction ({failed}/{attempted} runs)")
    for name, value in end_to_end.items():
        print(f"{w} {name} {value} {END_TO_END_UNITS[name]}")
    for name, (value, unit) in per_layer.items():
        print(f"{w} {name} {value} {unit}")
    shares = {n[:-len(".share")]: v for n, (v, _) in per_layer.items() if n.endswith(".share")}
    loaded = sum(shares[layer] for layer in LOADS[w])
    others = {k: v for k, v in shares.items() if k not in LOADS[w]}
    top = max(others, key=others.__getitem__)
    print(f"{w} loads {'+'.join(LOADS[w])}: share {loaded:.3f}; "
          f"largest other layer {top}: {others[top]:.3f}")

    (directory / "result.json").write_text(json.dumps({
        "workload": w, "seed": args.seed, "rounds": len(runs), "report_sha256": reference_sha,
        "problems": problems, "end_to_end": end_to_end,
        "per_layer": {k: v for k, (v, _) in per_layer.items()},
        "wall_s": [r.wall_s for r in runs], "setup_wall_s": [r.wall_s for r in setup_runs[1:]],
        "calibration_s": calibrations,
    }, indent=1) + "\n")

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
