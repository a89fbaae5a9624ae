"""Sliding-window distribution health: window semantics and sub-signals."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evalgate.distribution import DistributionWindow, snapshot
from evalgate.model import EvalConfig, OutputEvent
from evalgate.stats import normalized_entropy

CFG = EvalConfig()


def event(category: str, ts: int = 0, quality: float | None = None) -> OutputEvent:
    return OutputEvent(category=category, session_id="s", timestamp=ts, quality_signal=quality)


def fill_window(categories: list[str], capacity: int = 100) -> DistributionWindow:
    window = DistributionWindow(capacity)
    for i, c in enumerate(categories):
        window.observe(event(c, ts=i))
    return window


def test_observe_appends_and_evicts():
    window = DistributionWindow(3)
    window.observe(event("a"))
    assert len(window) == 1
    for c in ("b", "c", "d"):
        window.observe(event(c))
    assert len(window) == 3
    assert [e.category for e in window.events] == ["b", "c", "d"]
    assert window.category_counts == {"b": 1, "c": 1, "d": 1}


def test_counts_stay_consistent_under_eviction():
    window = DistributionWindow(4)
    for i in range(50):
        window.observe(event(f"c{i % 3}", ts=i))
    from collections import Counter
    assert window.category_counts == dict(Counter(e.category for e in window.events))


def test_diversity_is_distinct_over_capacity():
    cats = [f"c{i % 20}" for i in range(100)]
    assert snapshot(fill_window(cats), CFG).diversity == 0.200
    cats8 = [f"c{i % 8}" for i in range(100)]
    assert snapshot(fill_window(cats8), CFG).diversity == 0.080
    cats3 = [f"c{i % 3}" for i in range(100)]
    assert snapshot(fill_window(cats3), CFG).diversity == 0.030


def test_repeat_rate_counts_recent_tail_only():
    # 80 varied events then 20 of one category: tail of k_top=20 is pure
    cats = [f"c{i % 10}" for i in range(80)] + ["hot"] * 20
    snap = snapshot(fill_window(cats), CFG)
    assert snap.repeat_rate == 1.000


def test_repeat_rate_short_window_uses_fill():
    snap = snapshot(fill_window(["a", "a", "b"]), CFG)
    assert snap.repeat_rate == pytest.approx(2 / 3)


def test_single_category_window_degenerates():
    window = fill_window(["only"] * 40)
    snap = snapshot(window, CFG)
    assert snap.entropy == 0.0
    assert snap.diversity == pytest.approx(1 / 100)
    assert snap.repeat_rate == 1.0
    assert snap.score == pytest.approx(CFG.beta * (1 / 100), abs=1e-12)


def test_uniform_window_maximal_entropy():
    cats = [f"c{i % 25}" for i in range(100)]
    snap = snapshot(fill_window(cats), CFG)
    assert snap.entropy == pytest.approx(1.0, abs=1e-12)


def test_score_is_weighted_blend():
    cats = [f"c{i % 4}" for i in range(100)]
    snap = snapshot(fill_window(cats), CFG)
    expected = CFG.alpha * snap.entropy + CFG.beta * snap.diversity + CFG.gamma * (1 - snap.repeat_rate)
    assert snap.score == pytest.approx(expected, abs=1e-15)


def test_mean_quality_averages_tagged_events_only():
    window = DistributionWindow(10)
    window.observe(event("a", quality=0.8))
    window.observe(event("b"))
    window.observe(event("c", quality=0.9))
    snap = snapshot(window, CFG)
    assert snap.mean_quality == pytest.approx(0.85)
    assert snap.window_fill == 3
    assert snap.distinct_categories == 3


def test_metadata_keys():
    snap = snapshot(fill_window(["a", "b"]), CFG)
    assert set(snap.metadata()) == {
        "entropy", "diversity", "repeat_rate", "window_fill",
        "distinct_categories", "mean_quality",
    }


categories_strategy = st.lists(
    st.sampled_from([f"c{i}" for i in range(12)]), min_size=1, max_size=150
)


@settings(max_examples=500, deadline=None)
@given(categories_strategy)
def test_signals_stay_in_unit_interval(categories):
    snap = snapshot(fill_window(categories), CFG)
    assert 0.0 <= snap.entropy <= 1.0
    assert 0.0 < snap.diversity <= 1.0
    assert 0.0 < snap.repeat_rate <= 1.0
    assert 0.0 <= snap.score <= 1.0


@settings(max_examples=300, deadline=None)
@given(categories_strategy)
def test_merging_categories_never_raises_diversity(categories):
    assume(len(set(categories)) >= 2)
    merged_into = sorted(set(categories))[0]
    merge_from = sorted(set(categories))[1]
    merged = [merged_into if c == merge_from else c for c in categories]
    before = snapshot(fill_window(categories), CFG)
    after = snapshot(fill_window(merged), CFG)
    assert after.diversity <= before.diversity


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=2, max_size=15), st.data())
def test_merging_categories_never_raises_entropy_at_fixed_k(counts, data):
    # merge leaves a zero slot so the normalization constant is unchanged;
    # the window-local snapshot re-normalizes by the shrunken K instead
    assume(sum(counts) > 0)
    k = len(counts)
    i = data.draw(st.integers(0, k - 1))
    j = data.draw(st.integers(0, k - 1))
    assume(i != j)
    merged = list(counts)
    merged[i] += merged[j]
    merged[j] = 0
    assert normalized_entropy(merged, k) <= normalized_entropy(counts, k) + 1e-12


@settings(max_examples=300, deadline=None)
@given(categories_strategy, st.randoms(use_true_random=False))
def test_entropy_ignores_arrival_order_of_counts(categories, rng):
    window = fill_window(categories, capacity=200)
    counts = list(window.category_counts.values())
    shuffled = list(counts)
    rng.shuffle(shuffled)
    assert normalized_entropy(counts, len(counts)) == normalized_entropy(shuffled, len(shuffled))
