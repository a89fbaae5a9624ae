"""Windowed distribution health: window semantics and sub-signals."""

from __future__ import annotations

from collections import Counter, deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from evalgate.distribution import snapshot
from evalgate.evaluator import _evaluate_distribution_dimension, _ToolColumns, _Windows
from evalgate.model import EvalConfig, OutputEvent
from evalgate.stats import normalized_entropy

CFG = EvalConfig()


def event(category: str, ts: int = 0, quality: float | None = None) -> OutputEvent:
    return OutputEvent(category=category, session_id="s", timestamp=ts, quality_signal=quality)


def distribution_dimension(events: list[OutputEvent], config: EvalConfig):
    """The DISTRIBUTION outcome of these events, folded one at a time as the
    evaluator folds them."""
    windows = _Windows(config, _ToolColumns())
    for e in events:
        windows.observe(e)
    return _evaluate_distribution_dimension(windows)


def outputs(categories: list[str]) -> list[OutputEvent]:
    """The window the default config scores over these categories: the last 100."""
    return [event(c, ts=i) for i, c in enumerate(categories)][-CFG.window_size:]


def test_each_window_covers_the_last_window_size_events():
    cfg = EvalConfig(window_size=3)
    events = outputs(["a", "a", "a", "b", "c", "c", "d"])
    _, confidence, metadata = distribution_dimension(events, cfg)
    # snapshots after events 3 and 6, and one at the end over events 5-7
    assert [(w["window_fill"], w["distinct_categories"]) for w in metadata["windows"]] == [
        (3, 1), (3, 2), (3, 2)
    ]
    assert confidence == 1.0


def test_snapshot_of_a_deque_equals_snapshot_of_a_list():
    events = [event(f"c{i % 7}", ts=i, quality=i / 50 if i % 3 else None) for i in range(50)]
    cfg = EvalConfig(window_size=50, k_top=9)
    assert snapshot(deque(events), cfg) == snapshot(events, cfg)


def test_diversity_is_distinct_over_capacity():
    cats = [f"c{i % 20}" for i in range(100)]
    assert snapshot(outputs(cats), CFG).diversity == 0.200
    cats8 = [f"c{i % 8}" for i in range(100)]
    assert snapshot(outputs(cats8), CFG).diversity == 0.080
    cats3 = [f"c{i % 3}" for i in range(100)]
    assert snapshot(outputs(cats3), CFG).diversity == 0.030


def test_repeat_rate_counts_recent_tail_only():
    # 80 varied events then 20 of one category: tail of k_top=20 is pure
    cats = [f"c{i % 10}" for i in range(80)] + ["hot"] * 20
    snap = snapshot(outputs(cats), CFG)
    assert snap.repeat_rate == 1.000


def test_repeat_rate_short_window_uses_fill():
    snap = snapshot(outputs(["a", "a", "b"]), CFG)
    assert snap.repeat_rate == pytest.approx(2 / 3)


def test_single_category_window_degenerates():
    snap = snapshot(outputs(["only"] * 40), CFG)
    assert snap.entropy == 0.0
    assert snap.diversity == pytest.approx(1 / 100)
    assert snap.repeat_rate == 1.0
    assert snap.score == pytest.approx(CFG.beta * (1 / 100), abs=1e-12)


def test_uniform_window_maximal_entropy():
    cats = [f"c{i % 25}" for i in range(100)]
    snap = snapshot(outputs(cats), CFG)
    assert snap.entropy == pytest.approx(1.0, abs=1e-12)


def test_score_is_weighted_blend():
    cats = [f"c{i % 4}" for i in range(100)]
    snap = snapshot(outputs(cats), CFG)
    expected = CFG.alpha * snap.entropy + CFG.beta * snap.diversity + CFG.gamma * (1 - snap.repeat_rate)
    assert snap.score == pytest.approx(expected, abs=1e-15)


def test_mean_quality_averages_tagged_events_only():
    events = [event("a", quality=0.8), event("b"), event("c", quality=0.9)]
    snap = snapshot(events, CFG)
    assert snap.mean_quality == pytest.approx(0.85)
    assert snap.window_fill == 3
    assert snap.distinct_categories == 3


def test_metadata_keys():
    snap = snapshot(outputs(["a", "b"]), CFG)
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
    snap = snapshot(outputs(categories), CFG)
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
    before = snapshot(outputs(categories), CFG)
    after = snapshot(outputs(merged), CFG)
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
    counts = list(Counter(categories).values())
    shuffled = list(counts)
    rng.shuffle(shuffled)
    assert normalized_entropy(counts, len(counts)) == normalized_entropy(shuffled, len(shuffled))


# --- the windows against the oracle's ring buffer ---------------------------

@st.composite
def distribution_inputs(draw):
    n_categories = draw(st.integers(1, 30))
    rows = draw(st.lists(
        st.tuples(st.integers(0, n_categories - 1),
                  st.one_of(st.none(), st.floats(0.0, 1.0))),
        min_size=1, max_size=400,
    ))
    events = [event(f"c{c}", ts=i, quality=q) for i, (c, q) in enumerate(rows)]
    config = EvalConfig(
        window_size=draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 100])),
        k_top=draw(st.integers(1, 25)),
    )
    return events, config


@settings(max_examples=400, deadline=None, derandomize=True)
@given(distribution_inputs())
def test_windows_match_the_ring_buffer_bit_for_bit(inputs):
    events, config = inputs
    assert reference.exact(distribution_dimension(events, config)) == \
        reference.exact(reference.distribution(events, config))
