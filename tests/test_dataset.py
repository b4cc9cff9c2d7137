import csv
import dataclasses
import io
import json
import logging
import random
import tempfile
import unicodedata
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from corpusforge.dataset import (
    MANIFEST_COLUMNS,
    ManifestError,
    RecordingEntry,
    RecordingManifest,
    SplitAssignment,
    SplitError,
    audit_leakage,
    group_key,
    load_manifest,
    split,
    write_assignment,
)

from oracles import manifest_oracle

HEADER = (
    "speaker_id,session_id,block_id,microphone_id,word,"
    "repetition_index,audio_path,transcript"
)


def make_entry(speaker="spk1", session="s1", block="b1", mic="m1",
               word="hund", rep=0):
    return RecordingEntry(
        speaker_id=speaker,
        session_id=session,
        block_id=block,
        microphone_id=mic,
        word=word,
        repetition_index=rep,
        audio_path=f"{speaker}/{word}_{block}_{mic}_{rep}.wav",
        transcript=word,
    )


def build_manifest(speakers, sessions, blocks, words, mics) -> RecordingManifest:
    entries = [
        make_entry(spk, ses, blk, mic, word)
        for spk in speakers
        for ses in sessions
        for blk in blocks
        for word in words
        for mic in mics
    ]
    return RecordingManifest(tuple(entries))


def random_manifest(rng: random.Random) -> RecordingManifest:
    speakers = [f"spk{i}" for i in range(rng.randint(2, 5))]
    sessions = [f"s{i}" for i in range(rng.randint(1, 3))]
    blocks = [f"b{i}" for i in range(rng.randint(2, 4))]
    words = [f"word{i:02d}" for i in range(rng.randint(5, 30))]
    mics = [f"m{i}" for i in range(rng.randint(1, 7))]
    return build_manifest(speakers, sessions, blocks, words, mics)


class TestLoadManifest:
    def test_csv_two_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            f"{HEADER}\nspk1,s1,b1,m1,hund,0,a.wav,hund\n"
            "spk1,s1,b1,m2,hund,0,b.wav,hund\n"
        )
        manifest = load_manifest(path)
        assert len(manifest) == 2
        assert manifest.entries[0].microphone_id == "m1"

    def test_duplicate_key_names_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            f"{HEADER}\nspk1,s1,b1,m1,hund,0,a.wav,hund\n"
            "spk1,s1,b1,m1,hund,0,b.wav,hund\n"
        )
        with pytest.raises(ManifestError, match=r"rows 2 and 3"):
            load_manifest(path)

    def test_missing_column_is_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("speaker_id,word\nspk1,hund\n")
        with pytest.raises(ManifestError, match="missing column"):
            load_manifest(path)

    def test_extra_column_warns_and_is_ignored(self, tmp_path, caplog):
        path = tmp_path / "m.csv"
        path.write_text(
            f"{HEADER},mood\nspk1,s1,b1,m1,hund,0,a.wav,hund,happy\n"
        )
        with caplog.at_level("WARNING"):
            manifest = load_manifest(path)
        assert len(manifest) == 1
        assert "mood" in caplog.text

    def test_jsonl_manifest(self, tmp_path):
        path = tmp_path / "m.jsonl"
        rows = [
            {
                "speaker_id": "spk1", "session_id": "s1", "block_id": "b1",
                "microphone_id": "m1", "word": "Hund", "repetition_index": 0,
                "audio_path": "a.wav", "transcript": "hund",
            },
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        manifest = load_manifest(path)
        assert manifest.entries[0].word == "hund"  # normalized

    def test_bad_repetition_index(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\nspk1,s1,b1,m1,hund,x,a.wav,hund\n")
        with pytest.raises(ManifestError, match="repetition_index"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "rep, expected",
        [("2", 2), ("2.0", 2), ("2.7", None), ("true", None), ("Infinity", None),
         ("-Infinity", None), ("NaN", None)],
    )
    def test_jsonl_repetition_index_follows_the_integer_rule(
        self, tmp_path, rep, expected
    ):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"speaker_id": "spk1", "session_id": "s1", "block_id": "b1", '
            '"microphone_id": "m1", "word": "hund", "audio_path": "a.wav", '
            f'"transcript": "hund", "repetition_index": {rep}}}\n'
        )
        if expected is None:
            with pytest.raises(ManifestError, match="must be an integer"):
                load_manifest(path)
        else:
            assert load_manifest(path).entries[0].repetition_index == expected

    def test_empty_manifest_is_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(HEADER + "\n")
        with pytest.raises(ManifestError, match="empty"):
            load_manifest(path)


class TestSplit:
    def test_strict_vocabulary_disjoint(self):
        manifest = build_manifest(
            ["spk1"], ["s1"], ["b1", "b2"], ["w1", "w2"], ["m1", "m2"]
        )
        assignment = split(manifest, "strict", 0.5, seed=3)
        audit = audit_leakage(manifest, assignment)
        assert audit.vocabulary_overlap == 0
        assert audit.spanning_group_keys == 0
        sides = {
            e.word: assignment.labels[e.entry_id] for e in manifest.entries
        }
        assert len(set(sides.values())) == 2

    def test_mixed_blocks_move_whole(self):
        manifest = build_manifest(
            ["spk1"], ["s1"], ["b1", "b2", "b3"], ["w1", "w2"],
            [f"m{i}" for i in range(7)],
        )
        assignment = split(manifest, "mixed", 0.6, seed=5)
        for entry in manifest.entries:
            key = group_key(entry, "mixed")
            assert assignment.group_key_audit["|".join(key)] == \
                assignment.labels[entry.entry_id]
        assert audit_leakage(manifest, assignment).spanning_group_keys == 0

    def test_natural_splits_words_within_block(self):
        manifest = build_manifest(
            ["spk1"], ["s1"], ["b1"], ["w1", "w2"], ["m1", "m2", "m3"]
        )
        assignment = split(manifest, "natural", 0.5, seed=1)
        w1_sides = {
            assignment.labels[e.entry_id]
            for e in manifest.entries
            if e.word == "w1"
        }
        assert len(w1_sides) == 1  # all mic copies together
        assert audit_leakage(manifest, assignment).spanning_group_keys == 0

    def test_single_group_is_error(self):
        manifest = build_manifest(["spk1"], ["s1"], ["b1"], ["w1"], ["m1", "m2"])
        with pytest.raises(SplitError, match="single group"):
            split(manifest, "strict", 0.5, seed=0)

    def test_bad_ratio_is_error(self):
        manifest = build_manifest(["spk1"], ["s1"], ["b1", "b2"], ["w1"], ["m1"])
        with pytest.raises(SplitError):
            split(manifest, "mixed", 1.0, seed=0)

    def test_unknown_policy_is_error(self):
        manifest = build_manifest(["spk1"], ["s1"], ["b1", "b2"], ["w1"], ["m1"])
        with pytest.raises(SplitError, match="policy"):
            split(manifest, "fancy", 0.5, seed=0)

    def test_seed_determinism_and_row_order_independence(self):
        manifest = random_manifest(random.Random(77))
        a = split(manifest, "natural", 0.8, seed=42)
        b = split(manifest, "natural", 0.8, seed=42)
        assert a.labels == b.labels
        shuffled_entries = list(manifest.entries)
        random.Random(5).shuffle(shuffled_entries)
        c = split(RecordingManifest(tuple(shuffled_entries)), "natural", 0.8, seed=42)
        assert c.labels == a.labels

    def test_seeds_produce_different_partitions(self):
        manifest = random_manifest(random.Random(78))
        outcomes = {
            tuple(sorted(split(manifest, "mixed", 0.5, seed=s).labels.items()))
            for s in range(10)
        }
        assert len(outcomes) > 1

    def test_both_sides_nonempty_at_extreme_ratio(self):
        manifest = build_manifest(
            ["spk1"], ["s1"], ["b1", "b2"], ["w1", "w2", "w3"], ["m1"]
        )
        for seed in range(10):
            for ratio in (0.01, 0.99):
                assignment = split(manifest, "natural", ratio, seed=seed)
                audit = audit_leakage(manifest, assignment)
                assert audit.train_entries > 0
                assert audit.test_entries > 0


class TestAuditLeakage:
    def test_randomized_manifests_all_policies(self):
        rng = random.Random(4242)
        for _ in range(25):
            manifest = random_manifest(rng)
            for policy in ("strict", "mixed", "natural"):
                ratio = rng.choice((0.5, 0.7, 0.8))
                assignment = split(manifest, policy, ratio, seed=rng.randint(0, 9999))
                audit = audit_leakage(manifest, assignment)
                assert audit.spanning_group_keys == 0
                if policy == "strict":
                    assert audit.vocabulary_overlap == 0
                groups: dict = {}
                for e in manifest.entries:
                    groups.setdefault(group_key(e, policy), []).append(e)
                largest = max(len(v) for v in groups.values())
                target = ratio * len(manifest.entries)
                assert abs(audit.train_entries - target) <= largest

    def test_corrupted_assignment_detected(self):
        manifest = build_manifest(
            ["spk1"], ["s1"], ["b1", "b2"], ["w1", "w2"], ["m1", "m2"]
        )
        assignment = split(manifest, "mixed", 0.5, seed=9)
        flipped = dict(assignment.labels)
        victim = manifest.entries[0].entry_id
        flipped[victim] = "test" if flipped[victim] == "train" else "train"
        corrupted = dataclasses.replace(assignment, labels=flipped)
        assert audit_leakage(manifest, corrupted).spanning_group_keys == 1

    def test_uncovered_entry_is_error(self):
        manifest = build_manifest(["spk1"], ["s1"], ["b1", "b2"], ["w1"], ["m1"])
        assignment = split(manifest, "mixed", 0.5, seed=0)
        partial = dict(assignment.labels)
        partial.pop(manifest.entries[0].entry_id)
        broken = dataclasses.replace(assignment, labels=partial)
        with pytest.raises(SplitError, match="not covered"):
            audit_leakage(manifest, broken)


def test_write_assignment_jsonl(tmp_path):
    manifest = build_manifest(["spk1"], ["s1"], ["b1", "b2"], ["w1"], ["m1"])
    assignment = split(manifest, "mixed", 0.5, seed=1)
    path = tmp_path / "assignment.jsonl"
    write_assignment(assignment, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert {r["side"] for r in rows} == {"train", "test"}
    assert rows[0]["entry_id"] == manifest.entries[0].entry_id


def test_write_assignment_bytes_match_json_dumps(tmp_path):
    ids = [
        "spk1|s1|b1|m1|hund|0",
        "spk1|s1|b1|m1|" + unicodedata.normalize("NFC", "mu\u0308de") + "|1",
        "spk1|s1|b1|m1|" + "mu\u0308de" + "|2",  # NFD, as a caller could build
        'sp"k|s\\1|b|1|m||w|3',
        "\u00fc\u00df\u20ac\U0001f3a4|\t|\x00|\x7f|w|4",
    ]
    assignment = SplitAssignment(
        policy="natural", seed=0, train_ratio=0.5,
        labels=dict(zip(ids, ["train", "test", "train", "test", "test"])),
        group_key_audit={},
    )
    path = tmp_path / "assignment.jsonl"
    write_assignment(assignment, path)
    expected = "".join(
        json.dumps({"entry_id": entry_id, "side": side}) + "\n"
        for entry_id, side in assignment.labels.items()
    )
    assert path.read_bytes() == expected.encode("ascii")


def test_recording_entry_is_a_named_tuple_of_its_fields():
    entry = make_entry(word="hund", rep=2)
    fields = ("spk1", "s1", "b1", "m1", "hund", 2, "spk1/hund_b1_m1_2.wav", "hund")
    assert entry == fields
    assert entry.key == fields[:6]
    assert entry.entry_id == "spk1|s1|b1|m1|hund|2"
    assert RecordingEntry._fields == MANIFEST_COLUMNS
    with pytest.raises(AttributeError):
        entry.word = "katze"


# -- load_manifest against the DictReader oracle -----------------------------

# Small value sets so that duplicate keys come up often. A cell takes one of
# its column's good values or, one time in 30, a bad one: "" unless the
# column lists its own (an empty transcript is good, so it has none).
GOOD_CELLS = {
    "speaker_id": ["spk1", "spk2", "s,p"],
    "session_id": ["s1", "s|1"],
    "block_id": ["b1", "b\n2"],
    "microphone_id": ["m1", "m2"],
    "word": ["hund", " Hund ", "mu\u0308de", "m\u00fcde", '"q"'],
    "repetition_index": ["0", "1", " 2 ", "+3"],
    "audio_path": ["a.wav", "dir, with comma/b.wav"],
    "transcript": ["", "hund", "line\nbreak", "\u00e9"],
    "mood": ["happy", ""],
}
BAD_CELLS = {"repetition_index": ["-1", "x", "1.5"], "transcript": []}
GOOD_JSON = {
    "speaker_id": ["spk1", 7, 0],
    "word": ["hund", "mu\u0308de", 5],
    "repetition_index": [0, 1, "2", True],
    "transcript": ["", "hund", 0],
}
BAD_JSON = {
    "repetition_index": [-1, 2.5, "x", [1]],
    "transcript": [None, ["hund"], False],
    "word": ["", ["Hund"], True],
    "audio_path": ["", {"p": 1}],
    "speaker_id": ["", True],
}


def cell(rng: random.Random, good: dict, bad: dict, name: str):
    values = good.get(name, GOOD_CELLS[name])
    if rng.random() < 1 / 30:
        values = bad.get(name, [""]) or values
    return rng.choice(values)


@contextmanager
def logged_warnings(*names: str):
    """Warning messages logged to the named loggers, in order."""
    messages: list[str] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    loggers = [logging.getLogger(name) for name in names]
    for lg in loggers:
        lg.addHandler(handler)
    try:
        yield messages
    finally:
        for lg in loggers:
            lg.removeHandler(handler)


def outcome(load, path: Path):
    with logged_warnings("corpusforge.dataset", "oracles.manifest") as warnings:
        try:
            result = ("ok", load(path).entries)
        except ManifestError as exc:
            result = ("error", str(exc))
    return result, warnings


def assert_matches_oracle(text: str, suffix: str, rng: random.Random) -> None:
    data = text.encode("utf-8")
    if rng.random() < 0.05:  # a Latin-1 "ä" makes the file not UTF-8
        cut = rng.randint(0, len(data))
        data = data[:cut] + b"\xe4" + data[cut:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"manifest{suffix}"
        path.write_bytes(data)
        expected = outcome(manifest_oracle, path)
        assert outcome(load_manifest, path) == expected
    # What the examples exercised (pytest --hypothesis-show-statistics).
    kind, value = expected[0]
    event("loaded" if kind == "ok" else value.split(": ")[-1][:30])


# Manifests are built from a seeded Random rather than from hypothesis's own
# draws, which lean so hard on edge values that almost no row would be valid.


def csv_manifest(rng: random.Random) -> str:
    header = list(MANIFEST_COLUMNS)
    rng.shuffle(header)
    for _ in range(rng.choice([0, 0, 1, 2])):  # duplicate and extra columns
        header.insert(rng.randint(0, len(header)), rng.choice([*header, "mood"]))
    if rng.random() < 0.05:
        header.remove(rng.choice(MANIFEST_COLUMNS))
    records = [header]
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.15:
            records.append([])  # a blank line
            continue
        if len(records) > 1 and rng.random() < 0.1:
            row = list(rng.choice(records[1:]))  # a duplicate key, or a blank
        else:
            row = [cell(rng, GOOD_CELLS, BAD_CELLS, name) for name in header]
        cut = rng.choice([0] * 16 + [-1, -2, 1, 2])  # short or long rows
        row = row[:cut] if cut < 0 else row + ["extra"] * cut
        records.append(row)
    out = io.StringIO()
    writer = csv.writer(
        out,
        lineterminator=rng.choice(["\n", "\r\n"]),
        quoting=rng.choice([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    )
    writer.writerows(records)
    return rng.choice(["", "\ufeff"]) + out.getvalue()


def jsonl_manifest(rng: random.Random) -> str:
    lines, records = [], []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "  ", "[1, 2]", "{bad"]))
            continue
        if records and rng.random() < 0.1:
            record = rng.choice(records)  # a duplicate key
        else:
            columns = [*MANIFEST_COLUMNS, "mood"]
            record = {
                name: cell(rng, GOOD_JSON, BAD_JSON, name)
                for name in rng.sample(columns, len(columns))
                if rng.random() < (0.5 if name == "mood" else 0.97)
            }
        records.append(record)
        lines.append(json.dumps(record, ensure_ascii=rng.random() < 0.5))
    return rng.choice(["", "\ufeff"]) + "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=True))
def test_csv_load_matches_dictreader_oracle(rng):
    assert_matches_oracle(csv_manifest(rng), ".csv", rng)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=True))
def test_jsonl_load_matches_json_oracle(rng):
    assert_matches_oracle(jsonl_manifest(rng), ".jsonl", rng)
