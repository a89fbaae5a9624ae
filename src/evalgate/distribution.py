"""Distribution health over windows of categorized outputs.

A window is the last window_size output events (fewer before that many have
arrived); the evaluator scores one after every window_size events and one
more at the end of the stream. Three sub-signals: normalized entropy of the
window's category distribution, diversity (distinct categories per window
slot), and repeat rate (largest single-category share among the most recent
min(n, k_top) events). Their weighted blend is the dimension score. Entropy
narrows before accuracy moves, which is what makes this an early-warning
signal.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from itertools import islice
from typing import Any, NamedTuple

from .model import EvalConfig, OutputEvent
from .stats import normalized_entropy


class DistributionSnapshot(NamedTuple):
    """One window's score and sub-signals; equal to a plain tuple of the same values."""

    entropy: float
    diversity: float
    repeat_rate: float
    window_fill: int
    distinct_categories: int
    mean_quality: float | None
    score: float

    def metadata(self) -> dict[str, Any]:
        """Every field but the score, in field order."""
        metadata = self._asdict()
        del metadata["score"]
        return metadata


def snapshot(events: Sequence[OutputEvent], config: EvalConfig) -> DistributionSnapshot:
    """Compute the health signals of one window of output events.

    Entropy normalizes over the categories present in the window, so any
    uniform window scores 1 regardless of catalogue size. Diversity divides
    by the configured window_size, not the fill. events must be non-empty;
    a list slice and a deque both serve.
    """
    fill = len(events)
    counts = Counter(e.category for e in events)
    distinct = len(counts)

    entropy = normalized_entropy(list(counts.values()), distinct)
    diversity = distinct / config.window_size

    tail_len = min(fill, config.k_top)
    tail_counts = Counter(e.category for e in islice(events, fill - tail_len, None))
    repeat_rate = max(tail_counts.values()) / tail_len

    score = (
        config.alpha * entropy
        + config.beta * diversity
        + config.gamma * (1.0 - repeat_rate)
    )

    qualities = [e.quality_signal for e in events if e.quality_signal is not None]
    mean_quality = math.fsum(qualities) / len(qualities) if qualities else None

    return DistributionSnapshot(
        entropy=entropy,
        diversity=diversity,
        repeat_rate=repeat_rate,
        window_fill=fill,
        distinct_categories=distinct,
        mean_quality=mean_quality,
        score=min(1.0, max(0.0, score)),
    )
