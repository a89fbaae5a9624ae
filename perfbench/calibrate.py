"""Calibration job for the evalgate benchmark; imports no evalgate code.

    python3 perfbench/calibrate.py TRACE

run.py times this job in every round, next to the CLI run on the same trace.
The host the benchmark runs on is shared, and its speed drifts by 20% or more
within minutes as other tenants load it. Dividing each CLI wall time by the
wall time of this fixed job cancels much of that drift. The job does the
kind of work the engine does on the same input, with the standard library
only: it reads the trace, decodes every line with json.loads and keeps the
values in memory, and embeds every pair text by hashing its tokens with
sha256 into a float vector and normalizing it with fsum. Because it
matches the engine's mix on the same input, both slow down alike: a fixed
synthetic job of the same kinds of operations had 1.5 to 2 times the spread.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

DIMENSION = 256


def work(path: Path) -> int:
    rows = []
    texts: list[str] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        if not isinstance(payload, dict):
            continue
        rows.append(tuple(payload.values()))
        if "text_a" in payload:
            texts += (payload["text_a"], payload["text_b"])
    for text in texts:
        vector = [0.0] * DIMENSION
        for token in text.lower().split():
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            vector[int.from_bytes(digest[:8], "big") % DIMENSION] += 1.0
        norm = math.sqrt(math.fsum(x * x for x in vector))
        math.fsum(x / norm for x in vector)
    return len(rows)


if __name__ == "__main__":
    work(Path(sys.argv[1]))
