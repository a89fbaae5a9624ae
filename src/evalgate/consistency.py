"""Cross-surface consistency: do equivalent requests get equal decisions?

The agreement rate counts pairs whose decisions match exactly; the score
weights it by the mean embedding similarity of the paired request texts.
Embeddings come from a pluggable provider; the bundled provider is a
deterministic token-hash bag-of-words embedder so the suite needs no model
downloads and replays byte-identically.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Protocol

from .model import EvalConfig, EvaluationError, RequestPair
from .stats import UndefinedStatisticError, cosine_similarity


class EmbeddingProvider(Protocol):
    """Deterministic text embedder with a fixed output dimension."""

    dimension: int

    def embed(self, text: str) -> list[float]: ...


class HashEmbeddingProvider:
    """Token-hash bag-of-words embedding, L2-normalized.

    Each whitespace token is lowered and hashed (sha256) to a vector index;
    counts accumulate and the vector is normalized. Deterministic across
    processes and platforms; never zero for non-empty text.

    Each instance memoizes token -> index, so sha256 runs once per distinct
    token; the memo holds one entry per distinct token the instance has seen
    and lives as long as the instance. The norm sums only the touched
    indices; the untouched ones add exact zeros, so the values are the same.
    """

    def __init__(self, dimension: int = 256):
        if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {dimension!r}")
        self.dimension = dimension
        self._index_of: dict[str, int] = {}

    def embed(self, text: str) -> list[float]:
        index_of = self._index_of
        counts: dict[int, float] = {}
        for token in text.lower().split() or [text]:
            index = index_of.get(token)
            if index is None:
                digest = hashlib.sha256(token.encode("utf-8")).digest()
                index = index_of[token] = int.from_bytes(digest[:8], "big") % self.dimension
            counts[index] = counts.get(index, 0.0) + 1.0
        norm = math.sqrt(math.fsum(x * x for x in counts.values()))
        vector = [0.0] * self.dimension
        for index, count in counts.items():
            vector[index] = count / norm
        return vector


@dataclass(frozen=True, slots=True)
class ConsistencyResult:
    agreement_rate: float
    mean_similarity: float
    score: float
    flagged: bool
    pair_count: int

    def metadata(self) -> dict[str, Any]:
        return {
            "agreement_rate": self.agreement_rate,
            "mean_similarity": self.mean_similarity,
            "pair_count": self.pair_count,
            "flagged": self.flagged,
        }


def agreement_rate(pairs: Sequence[RequestPair]) -> float:
    """Fraction of pairs whose decisions are exactly equal; pairs must be non-empty."""
    agreed = sum(1 for p in pairs if p.decision_a == p.decision_b)
    return agreed / len(pairs)


def consistency_score(
    pairs: Sequence[RequestPair],
    provider: EmbeddingProvider,
    config: EvalConfig,
) -> ConsistencyResult:
    """agreement_rate times the mean pairwise embedding similarity, clamped.

    Disagreeing pairs still contribute to the similarity mean. The flag
    fires on agreement rate alone, against theta_ar.
    """
    rate = agreement_rate(pairs)
    similarities: list[float] = []
    for pair in pairs:
        try:
            sim = cosine_similarity(provider.embed(pair.text_a), provider.embed(pair.text_b))
        except UndefinedStatisticError as exc:
            raise EvaluationError(
                f"embedding failed for pair ({pair.text_a!r}, {pair.text_b!r}): {exc}"
            ) from exc
        similarities.append(sim)
    mean_similarity = math.fsum(similarities) / len(similarities)
    return ConsistencyResult(
        agreement_rate=rate,
        mean_similarity=mean_similarity,
        score=min(1.0, max(0.0, rate * mean_similarity)),
        flagged=rate < config.theta_ar,
        pair_count=len(pairs),
    )
