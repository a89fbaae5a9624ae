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
from collections import Counter
from collections.abc import Iterable, Sequence
from operator import attrgetter, eq
from typing import Any, NamedTuple, Protocol

from .model import EvalConfig, EvaluationError, RequestPair, _echo
from .stats import UndefinedStatisticError, cosine_similarity

_MEMO_ENTRIES = 2**14  # about 3 MiB of token -> index entries per provider


class EmbeddingProvider(Protocol):
    """Deterministic text embedder with a fixed output dimension."""

    dimension: int

    def embed(self, text: str) -> list[float]: ...


class _TokenIndex(dict):
    """token -> vector index. A missing token is hashed (sha256) and stored; once
    the memo holds _MEMO_ENTRIES entries it is cleared first, even inside one text."""

    __slots__ = ("dimension",)

    def __init__(self, dimension: int):
        super().__init__()
        self.dimension = dimension

    def __missing__(self, token: str) -> int:
        if len(self) >= _MEMO_ENTRIES:
            self.clear()
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        index = self[token] = int.from_bytes(digest[:8], "big") % self.dimension
        return index


class HashEmbeddingProvider:
    """Token-hash bag-of-words embedding, L2-normalized.

    Each whitespace token is lowered and hashed (sha256) to a vector index;
    counts accumulate and the vector is normalized. Deterministic across
    processes and platforms; never zero for non-empty text.

    Each instance memoizes token -> index, so sha256 runs once per distinct
    token while the memo holds at most _MEMO_ENTRIES entries. consistency_score
    scores pairs with this exact class from index sets, bit-equal to the cosine
    of the vectors.
    """

    def __init__(self, dimension: int = 256):
        if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {dimension!r}")
        self.dimension = dimension
        self._index_of = _TokenIndex(dimension)

    def _indices(self, text: str) -> list[int]:
        """The vector index of each lowered token (of the text itself if it has none)."""
        return list(map(self._index_of.__getitem__, text.lower().split() or [text]))

    @staticmethod
    def _unit_counts(indices: list[int]) -> dict[int, float]:
        """The embedding's nonzero entries: {index: count / norm}."""
        counts = Counter(indices)
        norm = math.sqrt(math.fsum(count * count for count in counts.values()))
        return {index: count / norm for index, count in counts.items()}

    def embed(self, text: str) -> list[float]:
        vector = [0.0] * self.dimension
        for index, value in self._unit_counts(self._indices(text)).items():
            vector[index] = value
        return vector

    def _similarities(self, pairs: Iterable[tuple[str, str]]) -> list[float]:
        """cosine_similarity(embed(a), embed(b)) for each (a, b), bit for bit, from the index sets.

        With no index collision in either text every count is 1, so each fsum
        of cosine_similarity adds m copies of one product: one float multiply.
        Equal vectors need no identity check: their dot equals su and sv, within
        a few ulps of 1, where dot / (sqrt(su) * sqrt(sv)) is never below 1.0.
        """
        indices, sqrt, fsum = self._indices, math.sqrt, math.fsum
        similarities = []
        for text_a, text_b in pairs:
            a, b = indices(text_a), indices(text_b)
            set_a, set_b = set(a), set(b)
            if len(set_a) == len(a) and len(set_b) == len(b):
                wa, wb = 1.0 / sqrt(len(a)), 1.0 / sqrt(len(b))
                su, sv = len(a) * (wa * wa), len(b) * (wb * wb)
                dot = len(set_a & set_b) * (wa * wb)
            else:
                u, v = self._unit_counts(a), self._unit_counts(b)
                su, sv = fsum(x * x for x in u.values()), fsum(x * x for x in v.values())
                dot = fsum(x * v[i] for i, x in u.items() if i in v)
            similarities.append(min(1.0, max(-1.0, dot / (sqrt(su) * sqrt(sv)))))
        return similarities


class ConsistencyResult(NamedTuple):
    """The score and signals over all request pairs; equal to a plain tuple of the same values."""

    agreement_rate: float
    mean_similarity: float
    pair_count: int
    flagged: bool
    score: float

    def metadata(self) -> dict[str, Any]:
        """Every field but the score, in field order."""
        metadata = self._asdict()
        del metadata["score"]
        return metadata


def consistency_score(
    pairs: Sequence[RequestPair],
    provider: EmbeddingProvider,
    config: EvalConfig,
) -> ConsistencyResult:
    """The agreement rate times the mean pairwise embedding similarity, clamped.

    Disagreeing pairs still contribute to the similarity mean. The flag
    fires on agreement rate alone, against theta_ar.
    """
    if type(provider) is HashEmbeddingProvider:
        similarities = provider._similarities(map(attrgetter("text_a", "text_b"), pairs))
    else:
        similarities = []
        for pair in pairs:
            try:
                sim = cosine_similarity(provider.embed(pair.text_a), provider.embed(pair.text_b))
            except UndefinedStatisticError as exc:
                raise EvaluationError(
                    f"embedding failed for pair {_echo((pair.text_a, pair.text_b))}: {exc}"
                ) from exc
            similarities.append(sim)
    agreed = sum(map(eq, map(attrgetter("decision_a"), pairs),
                     map(attrgetter("decision_b"), pairs)))
    rate = agreed / len(pairs)
    mean_similarity = math.fsum(similarities) / len(similarities)
    return ConsistencyResult(
        agreement_rate=rate,
        mean_similarity=mean_similarity,
        pair_count=len(pairs),
        flagged=rate < config.theta_ar,
        score=min(1.0, max(0.0, rate * mean_similarity)),
    )
