"""Cross-surface agreement and the embedding-weighted consistency score."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalgate.consistency import (
    HashEmbeddingProvider,
    agreement_rate,
    consistency_score,
)
from evalgate.model import EvalConfig, RequestPair
from evalgate.stats import cosine_similarity

CFG = EvalConfig()
PROVIDER = HashEmbeddingProvider()


def pair(a: str, b: str, da: str = "allow", db: str = "allow") -> RequestPair:
    return RequestPair(text_a=a, text_b=b, decision_a=da, decision_b=db)


def test_agreement_rate_counts_exact_matches():
    pairs = [
        pair("x", "y"),
        pair("x", "y", "deny", "deny"),
        pair("x", "y", "allow", "deny"),
        pair("x", "y"),
    ]
    assert agreement_rate(pairs) == 0.75
    assert agreement_rate([pair("x", "y")]) == 1.0
    assert agreement_rate([pair("x", "y", "a", "b")]) == 0.0


def test_single_flip_arithmetic():
    pairs = [pair(f"q{i}", f"q{i} please") for i in range(8)]
    assert agreement_rate(pairs) == 1.0
    flipped = pairs[:-1] + [pair("q7", "q7 please", "allow", "deny")]
    assert agreement_rate(flipped) == pytest.approx(7 / 8)


def test_identical_requests_score_one():
    pairs = [pair("grant access to vault", "grant access to vault") for _ in range(5)]
    result = consistency_score(pairs, PROVIDER, CFG)
    assert result.agreement_rate == 1.0
    assert result.mean_similarity == 1.0
    assert result.score == 1.0
    assert not result.flagged


def test_score_is_product_of_independent_factors():
    pairs = [
        pair("does alice have access to vault", "can alice open the vault"),
        pair("does bob have access to vault", "can bob open the vault", "deny", "deny"),
        pair("is charlie an admin", "charlie admin status check"),
        pair("reset dana password", "password reset for dana", "allow", "deny"),
    ]
    expected_rate = 3 / 4
    sims = [
        cosine_similarity(PROVIDER.embed(p.text_a), PROVIDER.embed(p.text_b)) for p in pairs
    ]
    expected_mean = math.fsum(sims) / len(sims)
    result = consistency_score(pairs, PROVIDER, CFG)
    assert result.agreement_rate == expected_rate
    assert result.mean_similarity == pytest.approx(expected_mean, abs=1e-15)
    assert result.score == pytest.approx(expected_rate * expected_mean, abs=1e-15)
    assert result.flagged  # 0.75 < default theta_ar 0.9


def test_flag_follows_theta_ar_only():
    pairs = [pair("a b", "c d")] * 9 + [pair("a b", "c d", "allow", "deny")]
    result = consistency_score(pairs, PROVIDER, CFG)
    assert result.agreement_rate == 0.9
    assert not result.flagged  # 0.9 >= 0.9
    stricter = consistency_score(pairs, PROVIDER, EvalConfig(theta_ar=0.95))
    assert stricter.flagged


def test_metadata_keys():
    result = consistency_score([pair("a", "a")], PROVIDER, CFG)
    assert set(result.metadata()) == {
        "agreement_rate", "mean_similarity", "pair_count", "flagged",
    }


def test_hash_provider_is_deterministic_and_unit_norm():
    u = PROVIDER.embed("the same text twice")
    v = PROVIDER.embed("the same text twice")
    assert u == v
    assert math.fsum(x * x for x in u) == pytest.approx(1.0, abs=1e-12)
    assert len(u) == PROVIDER.dimension
    assert any(x != 0 for x in PROVIDER.embed("x"))
    assert any(x != 0 for x in PROVIDER.embed("   "))


def test_provider_similarity_reflects_token_overlap():
    same = cosine_similarity(
        PROVIDER.embed("approve the request"), PROVIDER.embed("approve the request now")
    )
    unrelated = cosine_similarity(
        PROVIDER.embed("approve the request"), PROVIDER.embed("weather forecast tuesday")
    )
    assert same > unrelated


texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=30
)
decisions = st.sampled_from(["allow", "deny", "review"])
pairs_strategy = st.lists(
    st.builds(pair, texts, texts, decisions, decisions), min_size=1, max_size=20
)


@settings(max_examples=300, deadline=None)
@given(pairs_strategy, st.randoms(use_true_random=False))
def test_pair_order_never_affects_outputs(pairs, rng):
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    a = consistency_score(pairs, PROVIDER, CFG)
    b = consistency_score(shuffled, PROVIDER, CFG)
    assert a.agreement_rate == b.agreement_rate
    assert a.mean_similarity == b.mean_similarity
    assert a.score == b.score


@settings(max_examples=300, deadline=None)
@given(pairs_strategy)
def test_score_bounded_by_factors(pairs):
    result = consistency_score(pairs, PROVIDER, CFG)
    assert 0.0 <= result.score <= 1.0
    if result.mean_similarity >= 0:
        assert result.score <= result.agreement_rate + 1e-15
        assert result.score <= max(result.mean_similarity, 0.0) + 1e-15
