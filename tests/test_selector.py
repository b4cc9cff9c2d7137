import math
import random
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge.selector import (
    CandidatePool,
    PhonemeWeights,
    SelectionError,
    coverage_report,
    gbc_select,
    pool_from_lexicon,
    pwps_select,
    replay_selection,
)

from oracles import (
    brute_force_max_coverage,
    gbc_oracle_trace,
    pwps_oracle_trace,
    random_pool,
)


def pool_of(items):
    return CandidatePool.build(items)


# Biphone sets {ab,bc,cd}, {ab,bc}, {de} via explicit sequences.
THREE_WORD_POOL = pool_of(
    [("w1", ("a", "b", "c", "d")), ("w2", ("a", "b", "c")), ("w3", ("d", "e"))]
)


class TestGbc:
    def test_greedy_trace(self):
        state = gbc_select(THREE_WORD_POOL, 2)
        assert state.selected_words == ["w1", "w3"]

    def test_stops_when_no_new_biphones(self):
        pool = pool_of([("w1", ("a", "b"))])
        state = gbc_select(pool, 5)
        assert state.selected_words == ["w1"]

    def test_identical_sets_terminate_after_first(self):
        pool = pool_of([("w1", ("a", "b")), ("w2", ("a", "b"))])
        state = gbc_select(pool, 2)
        assert state.selected_words == ["w1"]

    def test_tie_broken_by_canonical_order(self):
        pool = pool_of([("zz", ("a", "b")), ("aa", ("c", "d"))])
        assert gbc_select(pool, 1).selected_words == ["aa"]

    def test_empty_pool_is_error(self):
        with pytest.raises(SelectionError):
            gbc_select(CandidatePool(()), 1)

    def test_single_phoneme_words_never_chosen(self):
        pool = pool_of([("a", ("x",)), ("b", ("y", "z"))])
        assert gbc_select(pool, 2).selected_words == ["b"]

    def test_deterministic(self):
        rng = random.Random(7)
        for _ in range(20):
            pool = random_pool(rng)
            first = gbc_select(pool, 4).selected_words
            assert gbc_select(pool, 4).selected_words == first

    def test_per_step_gain_positive_and_sums_to_coverage(self):
        rng = random.Random(11)
        for _ in range(50):
            pool = random_pool(rng)
            state = gbc_select(pool, 6)
            report = coverage_report(state)
            assert all(g >= 1 for g in report.per_step_gain)
            assert sum(report.per_step_gain) == report.distinct_biphones

    def test_halts_only_when_nothing_new_remains(self):
        # Budget far beyond the biphone supply: at the halt, coverage must
        # equal the whole pool union (otherwise some word still had gain).
        rng = random.Random(13)
        for _ in range(30):
            pool = random_pool(rng, max_words=6, alphabet_size=3)
            state = gbc_select(pool, 50)
            union = frozenset().union(*(c.biphones for c in pool.words))
            assert state.covered_biphones == union


class TestBruteForce:
    def test_best_single_word(self):
        pool = pool_of([("w1", ("a", "b")), ("w2", ("b", "c")), ("w3", ("a", "b", "c"))])
        assert brute_force_max_coverage(pool, 1) == (("w3",), 2)

    def test_only_option(self):
        pool = pool_of([("w1", ("a", "b"))])
        assert brute_force_max_coverage(pool, 1) == (("w1",), 1)

    def test_smaller_subset_wins_ties(self):
        pool = pool_of([("w1", ("a", "b")), ("w2", ("a", "b"))])
        assert brute_force_max_coverage(pool, 2) == (("w1",), 1)

    def test_pool_size_cap(self):
        items = [(f"w{i:02d}", ("a", "b")) for i in range(21)]
        with pytest.raises(SelectionError, match="20"):
            brute_force_max_coverage(pool_of(items), 2)

    def test_greedy_respects_max_coverage_bound(self):
        rng = random.Random(23)
        factor = 1 - 1 / math.e
        for _ in range(50):
            pool = random_pool(rng, max_words=10, alphabet_size=4)
            k = rng.randint(1, 4)
            greedy = len(gbc_select(pool, k).covered_biphones)
            _, best = brute_force_max_coverage(pool, k)
            assert greedy >= factor * best


class TestPwps:
    def test_weighted_trace(self):
        pool = pool_of([("a", ("s", "r")), ("b", ("s",)), ("c", ("r",))])
        weights = PhonemeWeights({"s": 2.0, "r": 1.0})
        state = pwps_select(pool, 2, weights)
        assert state.selected_words == ["a", "b"]

    def test_zero_score_words_come_last(self):
        pool = pool_of([("b", ("s",)), ("d", ("t",))])
        weights = PhonemeWeights({"s": 1.0})
        assert pwps_select(pool, 2, weights).selected_words == ["b", "d"]

    def test_empty_target_set_is_error(self):
        with pytest.raises(SelectionError):
            PhonemeWeights({})

    def test_nonpositive_weight_is_error(self, tmp_path):
        for alpha in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SelectionError, match="weight for 's' must be"):
                PhonemeWeights({"s": alpha})
        # Python's json module parses Infinity.
        path = tmp_path / "weights.json"
        path.write_text('{"s": Infinity}')
        with pytest.raises(SelectionError, match="'s' must be finite and > 0"):
            PhonemeWeights.from_json(path)

    def test_budget_beyond_pool_selects_all(self):
        pool = pool_of([("a", ("s",)), ("b", ("t",))])
        state = pwps_select(pool, 10, PhonemeWeights({"s": 1.0}))
        assert sorted(state.selected_words) == ["a", "b"]

    def test_pool_must_be_disjoint_from_prior(self):
        pool = pool_of([("a", ("s", "r")), ("b", ("s",))])
        prior = gbc_select(pool, 1)
        with pytest.raises(SelectionError, match="overlap"):
            pwps_select(pool, 1, PhonemeWeights({"s": 1.0}), prior)

    def test_counts_use_token_multiplicity(self):
        # "mama" puts two tokens of each phoneme into the counts, so the
        # next word sharing "m" is smoothed by 1/(2+1), not 1/(1+1).
        pool = pool_of([("mama", ("m", "a", "m", "a")), ("om", ("o", "m")), ("uh", ("u", "h"))])
        weights = PhonemeWeights({"m": 3.0, "u": 1.1})
        state = pwps_select(pool, 2, weights)
        # mama scores 3.0 (distinct m once); then om = 3/3 = 1.0 < uh = 1.1.
        assert state.selected_words == ["mama", "uh"]

    def test_score_decays_for_shared_phonemes(self):
        pool = pool_of([("a", ("s",)), ("b", ("s",))])
        weights = PhonemeWeights({"s": 2.0})
        state = pwps_select(pool, 2, weights)
        counts_after_first = Counter(pool.words[0].phonemes)
        first = 2.0 / 1
        second = 2.0 / (counts_after_first["s"] + 1)
        assert second < first
        assert state.selected_words == ["a", "b"]

    def test_matches_straight_line_oracle(self):
        rng = random.Random(31)
        for _ in range(30):
            pool = random_pool(rng)
            targets = {
                p: rng.uniform(0.1, 3.0)
                for p in "abcde"
                if rng.random() < 0.6
            } or {"a": 1.0}
            weights = PhonemeWeights(targets)
            k_prime = rng.randint(1, len(pool))
            got = pwps_select(pool, k_prime, weights).selected_words
            assert got == pwps_oracle_trace(pool, k_prime, weights)


@st.composite
def tie_heavy_cases(draw):
    """Small pools full of ties: few symbols, repeated pronunciations, few
    distinct weights, targets that leave some words scoring zero, and
    budgets on both sides of the pool size."""
    alphabet = "abcde"[: draw(st.integers(2, 5))]
    pronunciation = st.lists(
        st.sampled_from(alphabet), min_size=1, max_size=4
    ).map(tuple)
    pronunciations = draw(st.lists(pronunciation, min_size=1, max_size=4))
    n = draw(st.integers(1, 14))
    pool = pool_of(
        [(f"w{i:02d}", draw(st.sampled_from(pronunciations))) for i in range(n)]
    )
    targets = draw(
        st.lists(
            st.sampled_from(alphabet),
            min_size=1,
            max_size=len(alphabet) - 1,
            unique=True,
        )
    )
    weights = PhonemeWeights(
        {p: draw(st.sampled_from((0.5, 1.0, 2.0))) for p in targets}
    )
    budget = st.integers(1, n + 3)
    return pool, weights, draw(budget), draw(budget)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_cases())
def test_selectors_follow_rescanning_oracles_on_ties(case):
    pool, weights, k, k_prime = case
    assert gbc_select(pool, k).selected_words == gbc_oracle_trace(pool, k)
    assert pwps_select(pool, k_prime, weights).selected_words == (
        pwps_oracle_trace(pool, k_prime, weights)
    )


class TestStateAndReports:
    def test_state_recomputable_from_selected(self):
        rng = random.Random(41)
        for _ in range(30):
            pool = random_pool(rng)
            state = gbc_select(pool, 5)
            rebuilt_cover = frozenset().union(
                *(c.biphones for c in state.selected)
            ) if state.selected else frozenset()
            rebuilt_counts = Counter(
                p for c in state.selected for p in c.phonemes
            )
            assert state.covered_biphones == rebuilt_cover
            assert state.phoneme_counts == dict(rebuilt_counts)

    def test_report_fields(self):
        state = gbc_select(THREE_WORD_POOL, 2)
        report = coverage_report(state)
        assert report.word_count == 2
        assert report.distinct_biphones == 4
        assert report.per_step_gain == [3, 1]
        assert report.phoneme_histogram["d"] == 2

    def test_empty_selection_report(self):
        report = coverage_report(replay_selection(THREE_WORD_POOL, []))
        assert report.word_count == 0
        assert report.distinct_biphones == 0

    def test_report_serializes(self):
        report = coverage_report(gbc_select(THREE_WORD_POOL, 2))
        data = asdict(report)
        assert set(data) == {
            "word_count",
            "distinct_biphones",
            "phoneme_histogram",
            "per_step_gain",
        }


class TestPoolBuilding:
    def test_duplicate_words_rejected(self):
        with pytest.raises(SelectionError, match="duplicate"):
            CandidatePool.build([("a", ("x", "y")), ("a", ("x", "z"))])

    def test_from_lexicon_skips_oov(self, toy_lexicon):
        pool, skipped = pool_from_lexicon(["Hund", "xyzzy", "ja"], toy_lexicon)
        assert [c.word for c in pool.words] == ["hund", "ja"]
        assert skipped == ["xyzzy"]

    def test_canonical_order(self, toy_lexicon):
        pool, _ = pool_from_lexicon(["nein", "bellt", "der"], toy_lexicon)
        assert [c.word for c in pool.words] == ["bellt", "der", "nein"]
