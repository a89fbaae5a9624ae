"""Distribution health over a sliding window of categorized outputs.

Three sub-signals: normalized entropy of the window's category distribution,
diversity (distinct categories per window slot), and repeat rate (largest
single-category share among the most recent min(n, k_top) events). Their
weighted blend is the dimension score. Entropy narrows before accuracy
moves, which is what makes this an early-warning signal.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any

from .model import EvalConfig, OutputEvent
from .stats import normalized_entropy


@dataclass(frozen=True, slots=True)
class DistributionSnapshot:
    entropy: float
    diversity: float
    repeat_rate: float
    score: float
    window_fill: int
    distinct_categories: int
    mean_quality: float | None

    def metadata(self) -> dict[str, Any]:
        return {
            "entropy": self.entropy,
            "diversity": self.diversity,
            "repeat_rate": self.repeat_rate,
            "window_fill": self.window_fill,
            "distinct_categories": self.distinct_categories,
            "mean_quality": self.mean_quality,
        }


class DistributionWindow:
    """Ring buffer of the most recent ``capacity`` output events.

    Category counts are maintained incrementally; observe() is single-writer.
    capacity must be >= 1.
    """

    def __init__(self, capacity: int = 100):
        self.capacity = capacity
        self._events: deque[OutputEvent] = deque()
        self._counts: Counter[str] = Counter()

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> tuple[OutputEvent, ...]:
        return tuple(self._events)

    @property
    def category_counts(self) -> dict[str, int]:
        return dict(self._counts)

    def observe(self, event: OutputEvent) -> None:
        self._events.append(event)
        self._counts[event.category] += 1
        if len(self._events) > self.capacity:
            evicted = self._events.popleft()
            self._counts[evicted.category] -= 1
            if self._counts[evicted.category] == 0:
                del self._counts[evicted.category]


def snapshot(window: DistributionWindow, config: EvalConfig) -> DistributionSnapshot:
    """Compute the current window's health signals.

    Entropy normalizes over the categories present in the window, so any
    uniform window scores 1 regardless of catalogue size. Diversity divides
    by the configured capacity, not the fill. The window must be non-empty.
    """
    fill = len(window)
    counts = window.category_counts
    distinct = len(counts)

    entropy = normalized_entropy(list(counts.values()), distinct)
    diversity = distinct / window.capacity

    tail_len = min(fill, config.k_top)
    tail = list(window.events)[-tail_len:]
    tail_counts = Counter(e.category for e in tail)
    repeat_rate = max(tail_counts.values()) / tail_len

    score = (
        config.alpha * entropy
        + config.beta * diversity
        + config.gamma * (1.0 - repeat_rate)
    )

    qualities = [e.quality_signal for e in window.events if e.quality_signal is not None]
    mean_quality = math.fsum(qualities) / len(qualities) if qualities else None

    return DistributionSnapshot(
        entropy=entropy,
        diversity=diversity,
        repeat_rate=repeat_rate,
        score=min(1.0, max(0.0, score)),
        window_fill=fill,
        distinct_categories=distinct,
        mean_quality=mean_quality,
    )
