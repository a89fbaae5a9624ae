"""Seeded trace generator for the evalgate benchmark workloads.

This module is independent of ``evalgate.simulate``: it writes the trace
bytes itself and, next to them, the answers the engine must reproduce
(per-type record counts, injected bad-line numbers, tool state counts,
agreeing-pair count, pipeline count and DISTRIBUTION window count). The same
(workload, seed, lines) always yields byte-identical output.

    python3 perfbench/tracegen.py WORKLOAD SEED LINES PREFIX

writes PREFIX.jsonl, PREFIX.answers.json and, for a workload with its own
config, PREFIX.config.json.

Workloads:
  ingest      step, tool_call and output records in round robin, all valid,
              default config. Read and parse dominate.
  semantic    request_pair and attribution records only. Pair texts come from
              a bounded pool (REPEAT_SHARE of pairs reuse a pool entry) over a
              bounded vocabulary, so CONSISTENCY and EXPLANATION dominate.
  noisy-all5  all five record types interleaved, BAD_SHARE of lines invalid
              (invalid JSON, unknown type, missing field, out-of-range value),
              every pair text distinct, window_size NOISY_WINDOW_SIZE.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

WORKLOADS = ("ingest", "semantic", "noisy-all5")

RECORD_TYPES = ("step", "tool_call", "output", "attribution", "request_pair")
TOOL_STATES = ("SUCCESS", "PARTIAL", "FAILED")
# The features of the probe the CLI bundles; attribution records must name them.
PROBE_FEATURES = ("transaction_velocity", "device_age_days", "geography_risk_score")
DEFAULT_WINDOW_SIZE = 100

# Assumed, not measured: no real request-pair corpus backs these two values.
# With VOCABULARY_SIZE they set the semantic workload's distinct texts per
# embedding call (about 0.44), which bounds what an embedding memo can gain.
# Derive them from a real pair corpus once one exists.
REPEAT_SHARE = 0.7
POOL_SIZE = 500
VOCABULARY_SIZE = 512
BAD_SHARE = 0.04
BAD_KINDS = ("invalid_json", "unknown_type", "missing_field", "out_of_range")
NOISY_WINDOW_SIZE = 5

_STEP_NAMES = ("plan", "retrieve", "rank", "verify", "compose", "review")
_TOOL_NAMES = ("search", "fetch_profile", "rank_docs", "lookup_policy")
_CATEGORIES = tuple(f"cat_{i:02d}" for i in range(16))
_DECISIONS = ("approve", "deny", "escalate")


@dataclass(frozen=True)
class Trace:
    """A generated trace, its config (None for defaults) and known answers."""

    text: str
    config: dict[str, Any] | None
    answers: dict[str, Any]


def _dumps(payload: dict[str, Any]) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _pipeline_lengths(rng: random.Random, total: int) -> list[int]:
    """Split ``total`` steps into pipelines of 2..6 steps (never a lone step
    unless total is 1, which no pipeline split can avoid)."""
    lengths: list[int] = []
    remaining = total
    while remaining > 0:
        length = min(rng.randint(2, 6), remaining)
        if remaining - length == 1:
            length += 1
        lengths.append(length)
        remaining -= length
    return lengths


class _TraceState:
    """Accumulates records of one trace and counts what the engine must see."""

    def __init__(self, rng: random.Random, step_total: int, window_size: int, pool_size: int):
        self.rng = rng
        self.window_size = window_size
        self.counts = dict.fromkeys(RECORD_TYPES, 0)
        self.call_counts = dict.fromkeys(TOOL_STATES, 0)
        self.agreeing_pairs = 0
        self.texts: set[str] = set()
        self.pipelines = _pipeline_lengths(rng, step_total)
        self._steps = ((i + 1, n) for n in self.pipelines for i in range(n))
        self._serial = 0
        self.vocabulary = self._vocabulary()
        self.pool = [self._fresh_texts() for _ in range(pool_size)]

    def _vocabulary(self) -> list[str]:
        syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
        words = [a + b for a in syllables for b in syllables]
        return self.rng.sample(words, VOCABULARY_SIZE)

    def _fresh_texts(self) -> tuple[str, str]:
        """Two surface forms of one request: text_b swaps one word of text_a.
        A serial token makes every fresh pair distinct from all others."""
        rng = self.rng
        self._serial += 1
        tokens = [rng.choice(self.vocabulary) for _ in range(rng.randint(6, 14))]
        tokens.append(f"ref{self._serial}")
        variant = list(tokens)
        pos = rng.randrange(len(tokens) - 1)
        replacement = rng.choice(self.vocabulary)
        while replacement == tokens[pos]:
            replacement = rng.choice(self.vocabulary)
        variant[pos] = replacement
        return " ".join(tokens), " ".join(variant)

    def record(self, kind: str, tick: int, pooled: bool = False) -> str:
        rng = self.rng
        self.counts[kind] += 1
        if kind == "step":
            index, length = next(self._steps)
            low = rng.random() < 0.1 and index < length
            confidence = rng.uniform(0.1, 0.49) if low else rng.uniform(0.6, 0.99)
            return _dumps({
                "type": "step", "step_index": index,
                "step_name": _STEP_NAMES[(index - 1) % len(_STEP_NAMES)],
                "confidence": round(confidence, 4),
            })
        if kind == "tool_call":
            state = rng.choices(TOOL_STATES, weights=(0.8, 0.15, 0.05))[0]
            self.call_counts[state] += 1
            return _dumps({
                "type": "tool_call", "tool_name": rng.choice(_TOOL_NAMES), "state": state,
                "latency_ms": round(rng.lognormvariate(3.5, 0.6), 3), "timestamp": tick,
            })
        if kind == "output":
            payload: dict[str, Any] = {
                "type": "output", "category": rng.choice(_CATEGORIES),
                "session_id": f"s{rng.randrange(500)}", "timestamp": tick,
            }
            if rng.random() < 0.5:
                payload["quality_signal"] = round(rng.uniform(0.6, 0.95), 4)
            return _dumps(payload)
        if kind == "attribution":
            names = rng.sample(PROBE_FEATURES, rng.choice((2, 3)))
            weights = sorted((round(rng.uniform(0.01, 1.0), 3) for _ in names), reverse=True)
            return _dumps({
                "type": "attribution", "feature_names": names, "claimed_weights": weights,
                "decision_value": round(rng.random(), 4),
            })
        text_a, text_b = rng.choice(self.pool) if pooled else self._fresh_texts()
        self.texts.update((text_a, text_b))
        decision_a = rng.choice(_DECISIONS)
        decision_b = decision_a if rng.random() < 0.93 else rng.choice(_DECISIONS)
        self.agreeing_pairs += decision_a == decision_b
        return _dumps({
            "type": "request_pair", "text_a": text_a, "text_b": text_b,
            "decision_a": decision_a, "decision_b": decision_b,
        })

    def answers(self) -> dict[str, Any]:
        outputs = self.counts["output"]
        return {
            "record_counts": dict(self.counts),
            "call_counts": dict(self.call_counts),
            "pipelines": len(self.pipelines) if self.counts["step"] else 0,
            "windows": math.ceil(outputs / self.window_size),
            "pairs": self.counts["request_pair"],
            "agreeing_pairs": self.agreeing_pairs,
            "distinct_texts": len(self.texts),
        }


def _bad_line(rng: random.Random, kind: str, tick: int) -> str:
    if kind == "invalid_json":
        return '{"type":"step","step_index":%d,"confidence":0.5' % rng.randint(1, 6)
    if kind == "unknown_type":
        return _dumps({"type": "span", "name": rng.choice(_STEP_NAMES), "timestamp": tick})
    if kind == "missing_field":
        return _dumps({"type": "tool_call", "tool_name": rng.choice(_TOOL_NAMES),
                       "latency_ms": 12.5, "timestamp": tick})
    if rng.random() < 0.5:
        return _dumps({"type": "step", "step_index": 1, "step_name": "plan",
                       "confidence": round(rng.uniform(1.01, 3.0), 4)})
    return _dumps({"type": "output", "category": rng.choice(_CATEGORIES), "session_id": "s0",
                   "timestamp": tick, "quality_signal": round(rng.uniform(1.01, 3.0), 4)})


def generate(workload: str, seed: int, lines: int) -> Trace:
    """Generate ``lines`` trace lines for ``workload`` from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"perfbench:{workload}:{seed}")
    bad: dict[int, str] = {}
    if workload == "ingest":
        kinds = [RECORD_TYPES[i % 3] for i in range(lines)]
    elif workload == "semantic":
        kinds = [rng.choices(("request_pair", "attribution"), weights=(0.6, 0.4))[0]
                 for _ in range(lines)]
    else:
        numbers = sorted(rng.sample(range(1, lines + 1), round(lines * BAD_SHARE)))
        bad = {n: rng.choice(BAD_KINDS) for n in numbers}
        kinds = rng.choices(RECORD_TYPES, weights=(0.25, 0.2, 0.3, 0.1, 0.15),
                            k=lines - len(bad))
    window_size = NOISY_WINDOW_SIZE if workload == "noisy-all5" else DEFAULT_WINDOW_SIZE
    pool_size = POOL_SIZE if workload == "semantic" else 0
    state = _TraceState(rng, kinds.count("step"), window_size, pool_size)

    out: list[str] = []
    valid = iter(kinds)
    for number in range(1, lines + 1):
        if number in bad:
            out.append(_bad_line(rng, bad[number], number))
        else:
            kind = next(valid)
            pooled = workload == "semantic" and rng.random() < REPEAT_SHARE
            out.append(state.record(kind, number, pooled))

    answers = {
        "workload": workload, "seed": seed, "lines": lines, **state.answers(),
        "bad_lines": sorted(bad),
        "bad_kinds": {k: sum(1 for v in bad.values() if v == k) for k in BAD_KINDS},
    }
    config = {"window_size": window_size} if workload == "noisy-all5" else None
    return Trace(text="\n".join(out) + "\n", config=config, answers=answers)


def write(trace: Trace, prefix: Path) -> None:
    prefix.with_suffix(".jsonl").write_text(trace.text, encoding="utf-8")
    prefix.with_suffix(".answers.json").write_text(json.dumps(trace.answers, indent=1) + "\n")
    if trace.config is not None:
        prefix.with_suffix(".config.json").write_text(json.dumps(trace.config) + "\n")


if __name__ == "__main__":
    workload, seed, lines, prefix = sys.argv[1:]
    write(generate(workload, int(seed), int(lines)), Path(prefix))
