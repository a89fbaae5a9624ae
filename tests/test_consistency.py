"""Cross-surface agreement and the embedding-weighted consistency score."""

from __future__ import annotations

import hashlib
import json
import math
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from evalgate.cli import main
from evalgate import consistency
from evalgate.consistency import HashEmbeddingProvider, consistency_score
from evalgate.evaluator import _evaluate_consistency_dimension
from evalgate.model import EvalConfig, EvaluationError, RequestPair, report_entry
from evalgate.stats import UndefinedStatisticError, cosine_similarity

CFG = EvalConfig()
PROVIDER = HashEmbeddingProvider()


def pair(a: str, b: str, da: str = "allow", db: str = "allow") -> RequestPair:
    return RequestPair(text_a=a, text_b=b, decision_a=da, decision_b=db)


def agreement_rate(pairs: list[RequestPair]) -> float:
    return consistency_score(pairs, PROVIDER, CFG).agreement_rate


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
    assert agreement_rate(flipped) == 7 / 8


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
    assert result.mean_similarity == expected_mean
    assert result.score == expected_rate * expected_mean
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
    assert set(report_entry(result)) == {
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


EMBED_TEXTS = [
    "",
    "   ",
    "\t\n",
    "Grant ACCESS to the Vault",
    "grant access to the vault",
    "the the the the vault the",
    "Überweisung prüfen ÄÖÜ straße",
    "請 確認 帳戶 請",
    "é e\u0301 ﬁle",
    "x",
]


@pytest.mark.parametrize("dimension", [256, 1, 7])
def test_hash_provider_matches_the_unmemoized_algorithm(dimension):
    provider = HashEmbeddingProvider(dimension)
    cold = [provider.embed(text) for text in EMBED_TEXTS]
    warm = [provider.embed(text) for text in reversed(EMBED_TEXTS)][::-1]
    expected = [reference.embed(text, dimension) for text in EMBED_TEXTS]
    assert cold == expected
    assert warm == expected
    assert all(len(vector) == dimension for vector in cold)


def test_hash_providers_of_different_dimension_keep_their_own_memo():
    small, large = HashEmbeddingProvider(3), HashEmbeddingProvider(256)
    for _ in range(2):
        for text in EMBED_TEXTS:
            assert small.embed(text) == reference.embed(text, 3)
            assert large.embed(text) == reference.embed(text, 256)


def test_an_embedding_failure_echoes_at_most_100_characters_of_the_pair():
    zero = type("Zero", (), {"dimension": 2, "embed": lambda self, text: [0.0, 0.0]})()
    for text, shown in (("a", "('a', 'a')"), ("x" * 200, "('" + "x" * 98 + "...[408 characters]")):
        with pytest.raises(EvaluationError) as info:
            consistency_score([pair(text, text)], zero, CFG)
        assert str(info.value) == \
            f"embedding failed for pair {shown}: cosine similarity of a zero vector is undefined"


@pytest.mark.parametrize("dimension", [True, False, 0, -3, 2.5, 256.0, "8", None])
def test_hash_provider_rejects_a_dimension_that_is_not_a_positive_integer(dimension):
    with pytest.raises(ValueError) as info:
        HashEmbeddingProvider(dimension)
    assert str(info.value) == f"dimension must be an integer >= 1, got {dimension!r}"


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


def many_pairs_trace(seed: int = 20261018, count: int = 2000) -> str:
    """request_pair lines: half reuse a 50-entry pool of pairs, half are fresh;
    text_b rewords text_a, so the similarities spread over (0, 1]."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(300)] + ["Vault", "ACCESS", "straße", "請求", "résumé"]

    def new_pair() -> tuple[str, str]:
        tokens = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        reworded = [t.upper() if rng.random() < 0.2 else t for t in tokens if rng.random() < 0.8]
        reworded += [rng.choice(vocab) for _ in range(rng.randint(0 if reworded else 1, 3))]
        return " ".join(tokens), " ".join(reworded)

    pool = [new_pair() for _ in range(50)]
    lines = []
    for _ in range(count):
        a, b = rng.choice(pool) if rng.random() < 0.5 else new_pair()
        decision_a = rng.choice(["allow", "deny"])
        decision_b = decision_a if rng.random() < 0.9 else "review"
        lines.append(json.dumps({
            "type": "request_pair", "text_a": a, "text_b": b,
            "decision_a": decision_a, "decision_b": decision_b,
        }))
    return "\n".join(lines) + "\n"


# exit code, report sha256 and mean_similarity of many_pairs_trace(), recorded
# before the embedder memoized tokens and the cosine skipped zero entries
PINNED_MANY_PAIRS = (
    0, "519524e83ab5b34940861c2880e4bb72735c9851a967bfa273ef9b64848ee299", "0x1.8fb142cfef8dbp-1"
)


def test_report_bytes_of_many_pairs_are_pinned(tmp_path):
    trace = tmp_path / "t.jsonl"
    report_path = tmp_path / "r.json"
    trace.write_text(many_pairs_trace(), encoding="utf-8")
    code = main(["evaluate", "--input", str(trace), "--output", str(report_path)])
    document = json.loads(report_path.read_text())
    metadata = document["dimensions"]["CONSISTENCY"]["metadata"]
    assert metadata["pair_count"] == 2000
    digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
    assert (code, digest, metadata["mean_similarity"].hex()) == PINNED_MANY_PAIRS


# Tokens whose lowering, case or width tests the tokenizer: "İ" lowers to two
# code points, "ß" and "ﬁ" upper-case to two letters, "é" has two spellings.
TOKENS = ["a", "A", "b", "vault", "Vault", "VAULT", "İ", "i̇", "ß", "SS", "ss", "ﬁ", "FI",
          "fi", "é", "e\u0301", "請", "x1", "x2", "x3", "x4", "x5", "x6", "x7"]
SEPARATORS = [" ", "  ", "\t", "\n", " \u3000 "]
BLANK_TEXTS = ["", " ", "\t\n", "\u3000", "   "]
# Appended to text_a and text_b: no repeat; a repeat in one text, on an index the
# other text lacks or holds once; repeats in both, on different indices or on one.
REPEATS = [("", ""), (" z1 z1", ""), (" z1 z1", " z1"), (" z1 z1", " z2 z2"), (" z1 z1", " Z1 z1")]


@st.composite
def text_pairs(draw):
    """Two texts; text_b is often text_a changed in case, order, repetition or length."""
    tokens = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=12))
    separator = draw(st.sampled_from(SEPARATORS))
    text_a = draw(st.one_of(st.sampled_from(BLANK_TEXTS), st.just(separator.join(tokens))))
    text_b = draw(st.one_of(
        st.just(text_a), st.just(text_a.upper()), st.just(text_a.lower()),
        st.just(text_a.swapcase()), st.just(" ".join(reversed(text_a.split()))),
        st.just(f"{text_a} {tokens[0]}"), st.just(f"{text_a} y1 y2"), st.sampled_from(BLANK_TEXTS),
        st.lists(st.sampled_from(TOKENS), min_size=1, max_size=12).map(" ".join),
    ))
    suffix_a, suffix_b = draw(st.sampled_from(REPEATS))
    text_a, text_b = text_a + suffix_a, text_b + suffix_b
    return (text_a, text_b) if draw(st.booleans()) else (text_b, text_a)


def repeats(provider: HashEmbeddingProvider, text: str) -> int:
    """How many of the text's token indices repeat an earlier one."""
    indices = provider._indices(text)
    return len(indices) - len(set(indices))


def branch(provider: HashEmbeddingProvider, text_a: str, text_b: str) -> str:
    """The branch of _similarities that scores the pair."""
    most = max(repeats(provider, text_a), repeats(provider, text_b))
    return "_unit_counts" if most >= 2 else "one repeat per text" if most else "no repeat"


def test_pair_path_is_bit_equal_to_the_cosine_of_the_embeddings():
    reached = set()

    @settings(max_examples=800, deadline=None, derandomize=True)
    @given(st.sampled_from([1, 2, 3, 7, 256]), st.lists(text_pairs(), min_size=1, max_size=6))
    def check(dimension, texts):
        expected = [reference.exact(reference.cosine(reference.embed(text_a, dimension),
                                                     reference.embed(text_b, dimension)))
                    for text_a, text_b in texts]
        # each pair with a cold memo, then all of them in one call, the memo carrying over
        assert [reference.exact(HashEmbeddingProvider(dimension)._similarities([ab])[0])
                for ab in texts] == expected
        provider = HashEmbeddingProvider(dimension)
        assert [reference.exact(sim) for sim in provider._similarities(texts)] == expected
        for (text_a, text_b), sim in zip(texts, expected):
            reached.add((branch(provider, text_a, text_b), sim == reference.exact(1.0)))

    check()
    # every branch, each with equal and with unequal vectors
    assert reached == {(name, equal) for name in ("no repeat", "one repeat per text", "_unit_counts")
                       for equal in (False, True)}


def test_only_texts_with_two_or_more_repeats_are_scored_through_unit_counts(monkeypatch):
    pairs = [(line["text_a"], line["text_b"])
             for line in map(json.loads, many_pairs_trace().splitlines())]
    pairs += [("a b", "b c"), ("a a b", "b c"), ("a a b", "b b c"), ("a a b", "A b A"),
              ("a a b", "c d"), ("a a b b", "a b"), ("a a a", "a")]
    provider = HashEmbeddingProvider()
    scored = []
    unit_counts = HashEmbeddingProvider._unit_counts
    monkeypatch.setattr(HashEmbeddingProvider, "_unit_counts",
                        staticmethod(lambda indices: scored.append(indices) or unit_counts(indices)))
    provider._similarities(pairs)
    branches = [branch(provider, text_a, text_b) for text_a, text_b in pairs]
    assert {name: branches.count(name) for name in set(branches)} == \
        {"no repeat": 1584, "one repeat per text": 310, "_unit_counts": 113}
    assert scored == [provider._indices(text) for (text_a, text_b), name in zip(pairs, branches)
                      if name == "_unit_counts" for text in (text_a, text_b)]


def test_equal_texts_score_exactly_one_without_an_identity_check():
    provider = HashEmbeddingProvider(2**40)  # no index collision among these tokens
    tokens = [f"t{i}" for i in range(1000)]
    pairs = []
    for n in range(1, len(tokens) + 1):
        text = " ".join(tokens[:n])
        assert repeats(provider, text) == 0 and repeats(provider, f"{text} t0") == 1
        pairs += [(text, text.upper()),
                  (f"{text} t0", f"T0 {text}"),  # n + 1 tokens, one twice: squares sum to n + 3
                  (f"{text} t0 t0", f"T0 T0 {text}")]  # counts 3 and 1
    assert provider._similarities(pairs) == [1.0] * len(pairs)


class EmbedPath(HashEmbeddingProvider):
    """A subclass, so consistency_score scores its pairs through embed and the cosine."""


@pytest.mark.parametrize("provider", [PROVIDER, EmbedPath()])
def test_no_pairs_is_an_undefined_statistic(provider):
    with pytest.raises(UndefinedStatisticError) as info:
        consistency_score([], provider, CFG)
    assert str(info.value) == "consistency evaluation needs >= 1 request pair, got 0"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([1, 3, 256]), st.lists(
    st.builds(pair, texts, texts, decisions, decisions)
    | st.builds(lambda ab, da, db: pair(*ab, da, db), text_pairs().filter(all), decisions, decisions),
    min_size=1, max_size=20,
))
def test_pair_path_gives_the_dense_paths_consistency_result(dimension, pairs):
    expected = reference.exact(reference.consistency(pairs, CFG, dimension))
    for provider in (HashEmbeddingProvider(dimension), EmbedPath(dimension)):
        assert reference.exact(_evaluate_consistency_dimension(pairs, provider, CFG)) == expected


def test_bundled_provider_scores_pairs_without_embedding(monkeypatch):
    pairs = [pair("Grant access to the vault", "grant ACCESS vault vault"), pair("a", "A")]

    def refuse(first, second):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(HashEmbeddingProvider, "embed", refuse)
    monkeypatch.setattr(consistency, "cosine_similarity", refuse)
    assert reference.exact(_evaluate_consistency_dimension(pairs, HashEmbeddingProvider(), CFG)) \
        == reference.exact(reference.consistency(pairs, CFG))
    with pytest.raises(AssertionError, match="dense path taken"):
        consistency_score(pairs, EmbedPath(), CFG)  # a subclass keeps the embed path


def test_the_token_memo_is_cleared_past_its_bound(monkeypatch):
    rng = random.Random(7)
    words = [f"w{i}" for i in range(400)]
    pairs = [pair(" ".join(rng.choices(words, k=rng.randint(1, 12))),
                  " ".join(rng.choices(words, k=rng.randint(1, 12))),
                  *rng.choices(["allow", "deny"], k=2)) for _ in range(300)]
    unbounded = consistency_score(pairs, HashEmbeddingProvider(), CFG)
    monkeypatch.setattr(consistency, "_MEMO_ENTRIES", 32)
    provider = HashEmbeddingProvider()
    sizes = []
    for p in pairs:
        provider._similarities([(p.text_a, p.text_b)])
        sizes.append(len(provider._index_of))
    # never above the bound, and emptied on the way: the memo shrinks after some pair
    assert max(sizes) <= 32 and any(later < earlier for earlier, later in zip(sizes, sizes[1:]))
    bounded = consistency_score(pairs, provider, CFG)
    assert len(provider._index_of) <= 32
    assert reference.exact(bounded) == reference.exact(unbounded)


def test_the_token_memo_stays_within_its_bound_inside_one_text(monkeypatch):
    monkeypatch.setattr(consistency, "_MEMO_ENTRIES", 32)
    provider = HashEmbeddingProvider()
    held = []

    def sha256(data):
        held.append(len(provider._index_of))  # entries held as one more token is hashed
        return hashlib.sha256(data)

    monkeypatch.setattr(consistency, "hashlib", SimpleNamespace(sha256=sha256))
    text = " ".join(f"t{i}" for i in range(100))
    vector = provider.embed(text)
    assert len(held) == 100 and max(held) < 32 and len(provider._index_of) <= 32
    assert reference.exact(vector) == reference.exact(reference.embed(text))


def test_pair_path_builds_no_vector():
    provider = HashEmbeddingProvider(2**40)  # one vector would need 8 TiB
    pairs = [pair("alpha beta gamma", "beta gamma delta"), pair("a a b", "a b b")]
    tracemalloc.start()
    try:
        result = consistency_score(pairs, provider, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < result.mean_similarity < 1.0
    assert peak < 8192
