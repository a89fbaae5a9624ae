"""Property suite and brute-force oracles for the shared statistics."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from evalgate.stats import (
    UndefinedStatisticError,
    cosine_similarity,
    fractional_ranks,
    normalized_entropy,
    pearson,
    spearman,
)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def brute_pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def brute_ranks(values):
    # 1-based average ranks via explicit position averaging
    ranks = [0.0] * len(values)
    order = sorted(range(len(values)), key=lambda i: values[i])
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


# --- frozen oracle values ----------------------------------------------------

def test_entropy_oracle_counts_2_1_1():
    # direct summation of -(1/log 3) * sum(p log p) with p = (1/2, 1/4, 1/4)
    expected = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25)) / math.log(3)
    assert expected == pytest.approx(0.946394630357186, abs=1e-15)
    assert normalized_entropy([2, 1, 1], 3) == pytest.approx(expected, abs=1e-12)


def test_entropy_uniform_is_one():
    assert normalized_entropy([5] * 20, 20) == pytest.approx(1.0, abs=1e-12)


def test_entropy_point_mass_is_zero():
    assert normalized_entropy([7, 0, 0], 3) == 0.0


def test_entropy_single_category_convention():
    assert normalized_entropy([13], 1) == 0.0


def test_pearson_oracle_values():
    assert pearson([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)
    assert pearson([1, 2, 3], [1, 2, 3]) == 1.0
    assert pearson([1, 2, 3], [-1, -2, -3]) == -1.0


def test_spearman_oracle_value():
    # ranks (3,2,1) vs (1,3,2): brute pearson of the ranks is -0.5
    x = [0.55, 0.35, 0.05]
    y = [0.04, 0.45, 0.36]
    assert brute_pearson(brute_ranks(x), brute_ranks(y)) == pytest.approx(-0.5, abs=1e-12)
    assert spearman(x, y) == pytest.approx(-0.5, abs=1e-12)


def test_spearman_ordered_and_reversed():
    assert spearman([1.0, 5.0, 9.0], [2.0, 3.0, 4.0]) == 1.0
    assert spearman([1.0, 5.0, 9.0], [4.0, 3.0, 2.0]) == -1.0


def test_cosine_oracle_values():
    assert cosine_similarity([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.8, abs=1e-12)
    assert cosine_similarity([3.0, -1.5], [3.0, -1.5]) == 1.0
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0


# --- error contracts ---------------------------------------------------------

def test_spearman_rejects_non_finite():
    with pytest.raises(UndefinedStatisticError):
        spearman([1.0, float("nan")], [1.0, 2.0])


def test_cosine_rejects_zero_vector_and_mismatch():
    with pytest.raises(UndefinedStatisticError):
        cosine_similarity([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(UndefinedStatisticError):
        cosine_similarity([1.0], [1.0, 2.0])
    with pytest.raises(UndefinedStatisticError):
        cosine_similarity([], [])


def test_zero_variance_reads_as_no_correlation():
    assert pearson([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 0.0


# --- randomized properties ---------------------------------------------------

@settings(max_examples=1000, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=30))
def test_entropy_in_unit_interval(counts):
    assume(sum(counts) > 0)
    h = normalized_entropy(counts, len(counts))
    assert 0.0 <= h <= 1.0


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=2, max_size=20), st.randoms(use_true_random=False))
def test_entropy_permutation_invariant(counts, rng):
    assume(sum(counts) > 0)
    shuffled = list(counts)
    rng.shuffle(shuffled)
    assert normalized_entropy(shuffled, len(counts)) == normalized_entropy(counts, len(counts))


@settings(max_examples=1000, deadline=None)
@given(st.integers(2, 60), st.integers(1, 25))
def test_entropy_uniform_maximal(k, per_category):
    assert normalized_entropy([per_category] * k, k) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 30), st.integers(1, 100), st.integers(0, 29))
def test_entropy_point_mass_minimal(k, mass, position):
    counts = [0] * k
    counts[position % k] = mass
    assert normalized_entropy(counts, k) == 0.0


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=30))
def test_pearson_symmetric_and_bounded(pairs):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    r = pearson(x, y)
    assert -1.0 <= r <= 1.0
    assert pearson(y, x) == r


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=3, max_size=20),
    st.floats(0.1, 50),
    st.floats(-100, 100),
)
def test_pearson_positive_affine_invariant(pairs, scale, shift):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    assume(max(x) - min(x) > 1e-3 and max(y) - min(y) > 1e-3)
    transformed = [scale * a + shift for a in x]
    assert pearson(transformed, y) == pytest.approx(pearson(x, y), abs=1e-9)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=30))
def test_spearman_symmetric_and_bounded(pairs):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    r = spearman(x, y)
    assert -1.0 <= r <= 1.0
    assert spearman(y, x) == r


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-50, 50).map(lambda v: round(v, 2)), finite_floats),
        min_size=2,
        max_size=25,
    )
)
def test_spearman_strictly_monotone_invariant(pairs):
    # x values are quantized so cubing cannot collapse distinct values
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    cubed = [a**3 for a in x]  # strictly increasing, preserves all ties
    assert spearman(cubed, y) == spearman(x, y)


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(finite_floats, min_size=2, max_size=25, unique=True),
    st.lists(finite_floats, min_size=2, max_size=25, unique=True),
)
def test_spearman_equals_pearson_of_ranks_when_tie_free(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    assert spearman(x, y) == pearson(brute_ranks(x), brute_ranks(y))


# components small enough to square without overflow, large enough not to
# underflow the squared norm
cosine_component = st.floats(-100, 100).filter(lambda v: v == 0 or abs(v) > 1e-9)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(cosine_component, cosine_component), min_size=1, max_size=16))
def test_cosine_bounded(pairs):
    u = [p[0] for p in pairs]
    v = [p[1] for p in pairs]
    assume(any(a != 0 for a in u) and any(b != 0 for b in v))
    assert -1.0 <= cosine_similarity(u, v) <= 1.0


@settings(max_examples=1000, deadline=None)
@given(st.lists(cosine_component, min_size=1, max_size=16))
def test_cosine_self_similarity_exact(u):
    assume(any(a != 0 for a in u))
    assert cosine_similarity(u, u) == 1.0


# --- independent implementation cross-checks ---------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=3, max_size=30))
def test_pearson_matches_scipy(pairs):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    assume(max(x) - min(x) > 1e-3 and max(y) - min(y) > 1e-3)
    assert pearson(x, y) == pytest.approx(scipy_stats.pearsonr(x, y).statistic, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=3, max_size=30))
def test_spearman_matches_scipy(pairs):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    assume(len(set(x)) > 1 and len(set(y)) > 1)
    assert spearman(x, y) == pytest.approx(scipy_stats.spearmanr(x, y).statistic, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=2, max_size=25))
def test_entropy_matches_scipy(counts):
    assume(sum(counts) > 0)
    expected = scipy_stats.entropy(counts) / math.log(len(counts))
    assert normalized_entropy(counts, len(counts)) == pytest.approx(
        min(1.0, max(0.0, expected)), abs=1e-9
    )


def test_fractional_ranks_average_ties():
    assert fractional_ranks([10.0, 20.0, 10.0, 30.0]) == [1.5, 3.0, 1.5, 4.0]
