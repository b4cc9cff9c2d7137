import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge import metrics
from corpusforge.metrics import (
    EmptyReferenceError,
    EvalPair,
    corpus_rate,
    edit_counts,
    edit_rate,
    normalize,
)
from corpusforge.textnorm import PUNCTUATION, normalize_text, tokenize

from oracles import (
    edit_decomposition_oracle,
    levenshtein_recursive,
    levenshtein_table_oracle,
    normalize_text_oracle,
)


class TestNormalize:
    def test_word_mode(self):
        assert normalize("Der Hund!", "word") == ["der", "hund"]

    def test_char_mode_keeps_single_spaces(self):
        assert normalize("Der Hund!", "char") == list("der hund")

    def test_whitespace_collapse(self):
        assert normalize("  a   b ", "word") == ["a", "b"]

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            normalize("x", "phoneme")


# Every mark stripped, decomposed letters that NFC composes, a capital whose
# lowercase is two code points, and whitespace that str.split breaks on.
_TEXT_PIECES = [
    *PUNCTUATION, "a", "B", "ß", "e\u0301", "A\u0308", "\u0130", "'", "-",
    " ", "  ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2028", "\u3000",
]


@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=30).map("".join))
def test_normalization_matches_oracle(text):
    expected = normalize_text_oracle(text)
    assert normalize_text(text) == expected
    assert tokenize(text) == expected.split()
    assert normalize(text, "word") == expected.split()
    assert normalize(text, "char") == list(expected)


class TestEditRate:
    def test_identity_is_zero(self):
        summary = edit_rate(EvalPair("der hund bellt", "der hund bellt"), "word")
        assert summary.rate == 0.0
        assert summary.total_edits == 0

    def test_single_deletion(self):
        summary = edit_rate(EvalPair("der hund bellt", "der hund"), "word")
        assert (summary.substitutions, summary.deletions, summary.insertions) == (0, 1, 0)
        assert summary.rate == 1 / 3

    def test_rate_can_exceed_one(self):
        summary = edit_rate(EvalPair("a", "b c"), "word")
        assert (summary.substitutions, summary.insertions) == (1, 1)
        assert summary.rate == 2.0

    def test_char_substitution(self):
        summary = edit_rate(EvalPair("abc", "abd"), "char")
        assert summary.substitutions == 1
        assert summary.rate == 1 / 3

    def test_empty_reference_is_error(self):
        with pytest.raises(EmptyReferenceError):
            edit_rate(EvalPair("...", "hallo"), "word")

    def test_case_and_outer_whitespace_invariance(self):
        base = edit_rate(EvalPair("der hund", "der hunt"), "word")
        variant = edit_rate(EvalPair("  DER Hund ", "Der HUNT  "), "word")
        assert base == variant

    def test_backtrace_prefers_substitution(self):
        # "ab" -> "ba" can be sub+sub or ins+del; the tie rule picks subs.
        summary = edit_rate(EvalPair("a b", "b a"), "word")
        assert summary.substitutions == 2
        assert summary.deletions == summary.insertions == 0


class TestCorpusRate:
    def test_identical_pairs(self):
        pairs = [EvalPair("der hund", "der hund")] * 2
        assert corpus_rate(pairs, "word").rate == 0.0

    def test_pooled_not_mean_of_rates(self):
        # Edits 1 over ref length 2 plus edits 0 over length 8: pooled 0.1.
        pairs = [
            EvalPair("a b", "a c"),
            EvalPair("a b c d e f g h", "a b c d e f g h"),
        ]
        pooled = corpus_rate(pairs, "word")
        assert pooled.rate == 0.1
        assert pooled.reference_length == 10

    def test_single_pair_equals_edit_rate(self):
        pair = EvalPair("der hund bellt", "der hund")
        assert corpus_rate([pair], "word") == edit_rate(pair, "word")

    def test_empty_reference_identifies_pair(self):
        pairs = [EvalPair("ok", "ok"), EvalPair("", "x")]
        with pytest.raises(EmptyReferenceError, match="pair 1"):
            corpus_rate(pairs, "word")


def test_fuzz_against_recursive_oracle():
    rng = random.Random(1234)
    alphabet = "abcde"
    for _ in range(300):
        ref = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        subs, dels, ins = edit_counts(ref, hyp)
        assert subs + dels + ins == levenshtein_recursive(tuple(ref), tuple(hyp))


@given(
    st.lists(st.sampled_from("abcde"), max_size=12),
    st.lists(st.sampled_from("abcde"), max_size=12),
)
def test_edit_counts_match_oracle_and_bounds(ref, hyp):
    subs, dels, ins = edit_counts(ref, hyp)
    total = subs + dels + ins
    assert total == levenshtein_recursive(tuple(ref), tuple(hyp))
    assert total <= max(len(ref), len(hyp))


@st.composite
def tie_heavy_pairs(draw):
    """Cores of 0-160 tokens over a 2-4 symbol alphabet (many equal-cost
    paths) inside a shared prefix and a shared suffix of 0-40 tokens.

    Only the alphabet size and a seed are drawn; the lengths and tokens
    come from the seeded generator. So the shrinker works on two integers
    rather than on hundreds of list elements, and the lengths stay uniform
    where drawn ones would crowd near 0.
    """
    alphabet = "abcd"[: draw(st.integers(2, 4))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def tokens(most):
        return rng.choices(alphabet, k=rng.randint(0, most))

    prefix, suffix = tokens(40), tokens(40)
    return prefix + tokens(160) + suffix, prefix + tokens(160) + suffix


@settings(max_examples=60, deadline=None)
@given(tie_heavy_pairs())
def test_decomposition_matches_full_table_oracle(pair):
    ref, hyp = pair
    assert edit_counts(ref, hyp) == edit_decomposition_oracle(ref, hyp)


def _cases():
    """Fixed pairs: empty sides, lengths that cross int size boundaries
    (63, 64, 65 and 130 tokens), hypothesis tokens absent from the
    reference, all-equal and all-different sequences, long shared prefixes
    and suffixes, identical pairs, and one side a prefix or suffix of the
    other."""
    rng = random.Random(22)

    def tokens(n, alphabet="ab"):
        return [rng.choice(alphabet) for _ in range(n)]

    yield [], []
    yield [], list("abc")
    yield list("abc"), []
    for n in (63, 64, 65, 130):
        yield tokens(n), tokens(n)
        yield tokens(n), tokens(n - 1)
        yield tokens(n - 1), tokens(n, "abc")
        yield tokens(n), ["x"] * n
        yield ["a"] * n, ["a"] * n
        yield ["a"] * n, ["a"] * (n + 1)
        yield [f"r{i}" for i in range(n)], [f"h{i}" for i in range(n)]
        yield [f"t{i}" for i in range(n)], [f"t{i}" for i in range(n)][::-1]
    shared = tokens(100)
    yield shared + tokens(12), shared + tokens(9)
    yield tokens(12) + shared, tokens(9) + shared
    yield shared + tokens(20, "abc") + shared, shared + tokens(25, "abc") + shared
    yield shared, list(shared)
    yield shared[:40], shared
    yield shared, shared[:40]
    yield shared[60:], shared
    yield shared, shared[60:]
    yield list("kitten"), list("sitting")
    yield list("abc"), list("xyz")


@pytest.mark.parametrize("ref, hyp", list(_cases()))
def test_fixed_cases_match_oracle(ref, hyp):
    assert edit_counts(ref, hyp) == edit_decomposition_oracle(ref, hyp)


def test_delta_columns_rebuild_the_oracle_table():
    def delta(plus: int, minus: int, row: int) -> int:
        return (plus >> row & 1) - (minus >> row & 1)

    rng = random.Random(7)
    for _ in range(60):
        ref = [rng.choice("abc") for _ in range(rng.randint(0, 140))]
        hyp = [rng.choice("abc") for _ in range(rng.randint(0, 70))]
        columns = metrics._delta_columns(ref, hyp)
        # Down each column from row 0, and along each row from column 0.
        down = [list(range(len(hyp) + 1))]
        for i in range(len(ref)):
            down.append([
                cell + delta(vp, vn, i)
                for cell, (vp, vn, _, _) in zip(down[-1], columns)
            ])
        across = []
        for i in range(len(ref) + 1):
            row = [i]
            for _, _, hp, hn in columns[1:]:
                row.append(row[-1] + delta(hp, hn, i))
            across.append(row)
        assert down == across == levenshtein_table_oracle(ref, hyp)


@given(st.text(alphabet="abc xyz", max_size=20))
def test_self_rate_zero(text):
    pair = EvalPair(text, text)
    if normalize(text, "word"):
        assert edit_rate(pair, "word").rate == 0.0
        assert edit_rate(pair, "char").rate == 0.0
    else:
        with pytest.raises(EmptyReferenceError):
            edit_rate(pair, "word")
