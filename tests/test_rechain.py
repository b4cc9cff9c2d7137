import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge.rechain import (
    PROVENANCES,
    OovSentenceError,
    PlanError,
    SentencePlan,
    WordInventory,
    batch_plans,
    plan_from_sentence,
    plan_random,
    read_plans,
    write_plans,
)
from corpusforge.textnorm import tokenize


@pytest.fixture
def inventory():
    return WordInventory(
        {
            "der": ("der_m1.wav", "der_m2.wav"),
            "hund": ("hund_m1.wav",),
            "bellt": ("bellt_m1.wav",),
        }
    )


class TestPlanFromSentence:
    def test_tokens_in_order(self, inventory):
        plan = plan_from_sentence("Der Hund bellt.", inventory)
        assert [w for w, _ in plan.words] == ["der", "hund", "bellt"]
        assert plan.source_text == "Der Hund bellt."

    def test_missing_tokens_listed(self, inventory):
        with pytest.raises(OovSentenceError) as exc_info:
            plan_from_sentence("Der Hund fliegt.", inventory)
        assert exc_info.value.missing == ["fliegt"]

    def test_punctuation_and_case_stripped(self, inventory):
        plan = plan_from_sentence('HUND!', inventory)
        assert plan.words == (("hund", "hund_m1.wav"),)

    def test_first_recording_variant_chosen(self, inventory):
        plan = plan_from_sentence("der", inventory)
        assert plan.words[0][1] == "der_m1.wav"

    def test_punctuation_only_sentence_rejected(self, inventory):
        with pytest.raises(PlanError):
            plan_from_sentence("?!", inventory)


class TestPlanRandom:
    def test_singleton_inventory_forced(self):
        inv = WordInventory({"ja": ("ja.wav",)})
        plan = plan_random(inv, 4, seed=123)
        assert [w for w, _ in plan.words] == ["ja"] * 4

    def test_reproducible(self, inventory):
        a = plan_random(inventory, 10, seed=7)
        b = plan_random(inventory, 10, seed=7)
        assert a == b

    def test_seed_changes_plan(self, inventory):
        a = plan_random(inventory, 12, seed=1)
        b = plan_random(inventory, 12, seed=2)
        assert a != b  # astronomically unlikely to collide

    def test_empirical_frequencies_near_uniform(self, inventory):
        m = 100_000
        plan = plan_random(inventory, m, seed=99)
        sigma = math.sqrt((1 / 3) * (2 / 3) / m)
        for word in inventory.items:
            freq = sum(1 for w, _ in plan.words if w == word) / m
            assert abs(freq - 1 / 3) <= 3 * sigma

    def test_empty_inventory_is_error(self):
        with pytest.raises(PlanError):
            plan_random(WordInventory({}), 3, seed=0)


class TestBatchPlans:
    def test_mixed_batch(self, inventory):
        accepted, rejected = batch_plans(
            ["Der Hund bellt", "Der Hund fliegt", "hund hund"], inventory
        )
        assert len(accepted) == 2
        assert rejected == [("Der Hund fliegt", ["fliegt"])]

    def test_empty_input(self, inventory):
        assert batch_plans([], inventory) == ([], [])

    def test_all_rejected(self, inventory):
        accepted, rejected = batch_plans(["katze", "maus"], inventory)
        assert accepted == []
        assert len(rejected) == 2


class TestSentencePlan:
    def test_seed_required_iff_random(self):
        words = (("a", "a.wav"),)
        with pytest.raises(PlanError):
            SentencePlan(words=words, provenance="random")
        with pytest.raises(PlanError):
            SentencePlan(words=words, provenance="manual", seed=3)
        SentencePlan(words=words, provenance="random", seed=3)

    def test_tokenize_of_text_round_trips(self, inventory):
        plan = plan_from_sentence("Der Hund bellt.", inventory)
        assert tokenize(plan.text) == [w for w, _ in plan.words]

    def test_jsonl_round_trip(self, tmp_path, inventory):
        plans = [
            plan_from_sentence("Der Hund bellt.", inventory, provenance="llm"),
            plan_random(inventory, 5, seed=11),
        ]
        path = tmp_path / "plans.jsonl"
        write_plans(plans, path)
        assert read_plans(path) == plans
        first = json.loads(path.read_text().splitlines()[0])
        assert first["provenance"] == "llm"
        assert first["seed"] is None
        assert first["source_text"] == "Der Hund bellt."

    @pytest.mark.parametrize(
        "change",
        [
            {"words": [{"word": 5, "recording": "a.wav"}]},
            {"words": [{"word": "a", "recording": 5}]},
            {"seed": 2.5},
            {"seed": "x"},
            {"seed": True},
            {"seed": [1]},
            {"source_text": 3},
            {"source_text": ["a"]},
        ],
    )
    def test_record_of_wrong_types_is_plan_error(self, change):
        record = {
            "words": [{"word": "a", "recording": "a.wav"}],
            "provenance": "random",
            "seed": 1,
            "source_text": None,
        }
        SentencePlan.from_dict(record)
        with pytest.raises(PlanError, match="malformed plan record"):
            SentencePlan.from_dict({**record, **change})


def test_inventory_from_manifest_keeps_file_order(toy_corpus):
    from corpusforge.dataset import load_manifest

    inventory = WordInventory.from_manifest(load_manifest(toy_corpus / "manifest.csv"))
    assert list(inventory.items)[:2] == ["der", "hund"]
    assert inventory.items["der"] == ("der.wav",)


# Plan strings are stored verbatim: NFC and NFD spellings of "ü", escapes
# JSON must write ("\n", "\r", '"', "\\", NUL) and characters it writes raw
# that str.splitlines would break a line on (U+0085, U+2028).
PLAN_TEXT = st.lists(
    st.sampled_from(["a", "\u00fc", "u\u0308", "\n", "\r", '"', "\\", "\x00",
                     "\x85", "\u2028", "\U0001f600", "/", " "]),
    max_size=6,
).map("".join) | st.text(max_size=4)


@st.composite
def sentence_plans(draw):
    provenance = draw(st.sampled_from(PROVENANCES))
    return SentencePlan(
        words=tuple(draw(st.lists(st.tuples(PLAN_TEXT, PLAN_TEXT),
                                  min_size=1, max_size=4))),
        provenance=provenance,
        seed=draw(st.integers(0, 2**32 - 1)) if provenance == "random" else None,
        source_text=draw(st.none() | PLAN_TEXT),
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(sentence_plans(), max_size=4), st.sampled_from(["\n", "\r\n"]))
def test_write_read_plans_round_trip(plans, newline):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plans.jsonl"
        write_plans(plans, path)
        data = path.read_bytes()
        assert data.count(b"\n") == len(plans)  # one line per plan
        path.write_bytes(data.replace(b"\n", newline.encode()))
        assert read_plans(path) == plans
