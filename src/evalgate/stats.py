"""Shared statistics: normalized entropy, correlation, cosine similarity.

All functions are pure, operate on plain Python sequences, and accumulate
with math.fsum so results are independent of input ordering.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


class UndefinedStatisticError(ValueError):
    """Raised when a statistic is requested on input it is not defined for."""


def _check_finite(name: str, values: Sequence[float]) -> None:
    for v in values:
        if not math.isfinite(v):
            raise UndefinedStatisticError(f"{name} contains a non-finite value: {v!r}")


def normalized_entropy(counts: Sequence[int], k: int) -> float:
    """Shannon entropy of a count vector, normalized to [0, 1] by log(k).

    Zero counts contribute nothing; k == 1 returns 0.0 by convention.
    Natural log throughout; the 1/log(k) normalization cancels the base.
    counts must be k >= 1 non-negative counts with a positive sum.
    """
    n = sum(counts)
    if k == 1:
        return 0.0
    raw = -math.fsum((c / n) * math.log(c / n) for c in counts if c > 0)
    return min(1.0, max(0.0, raw / math.log(k)))


def _exact_affine_slope(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Slope a when y == a*x + b holds elementwise in float arithmetic, else None.

    Points exactly on a line correlate at exactly +/-1; sqrt rounding in the
    general path would smudge that by an ulp, so those cases are answered
    directly. Detection is conservative: near-affine data falls through.
    """
    j = next((k for k in range(1, len(x)) if x[k] != x[0]), None)
    if j is None:
        return None
    a = (y[j] - y[0]) / (x[j] - x[0])
    if a == 0.0 or not math.isfinite(a):
        return None
    b = y[0] - a * x[0]
    if not math.isfinite(b):
        return None
    if all(yk == a * xk + b for xk, yk in zip(x, y)):
        return a
    return None


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation. Zero variance in either series yields 0.0.

    x and y must be finite, of equal length >= 2. Sums that overflow a float
    raise UndefinedStatisticError.
    """
    n = len(x)
    try:
        mx = math.fsum(x) / n
        my = math.fsum(y) / n
        cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
        vx = math.fsum((a - mx) ** 2 for a in x)
        vy = math.fsum((b - my) ** 2 for b in y)
    except OverflowError:
        raise UndefinedStatisticError("correlation overflows a float") from None
    if vx == 0.0 or vy == 0.0:
        return 0.0
    slope = _exact_affine_slope(x, y)
    if slope is None:
        slope = _exact_affine_slope(y, x)  # keep detection symmetric in x and y
    if slope is not None:
        return 1.0 if slope > 0 else -1.0
    r = cov / (math.sqrt(vx) * math.sqrt(vy))
    return min(1.0, max(-1.0, r))


def fractional_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; ties receive the mean of the tied rank positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for pos in range(i, j + 1):
            ranks[order[pos]] = mean_rank
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation: pearson over average-fractional ranks.

    x and y must be of equal length >= 2; a non-finite value raises.
    """
    _check_finite("x", x)
    _check_finite("y", y)
    return pearson(fractional_ranks(x), fractional_ranks(y))


def cosine_similarity(u: Sequence[float], v: Sequence[float]) -> float:
    """Cosine of the angle between two vectors; identical vectors yield exactly 1.0."""
    if len(u) != len(v):
        raise UndefinedStatisticError(f"dimension mismatch: {len(u)} vs {len(v)}")
    if len(u) < 1:
        raise UndefinedStatisticError("vectors must have dimension >= 1")
    _check_finite("u", u)
    _check_finite("v", v)
    su = math.fsum(a * a for a in u)
    sv = math.fsum(b * b for b in v)
    if su == 0.0 or sv == 0.0:
        raise UndefinedStatisticError("cosine similarity of a zero vector is undefined")
    if all(a == b for a, b in zip(u, v)):
        return 1.0
    dot = math.fsum(a * b for a, b in zip(u, v))
    return min(1.0, max(-1.0, dot / (math.sqrt(su) * math.sqrt(sv))))
