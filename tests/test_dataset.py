import csv
import dataclasses
import io
import itertools
import json
import logging
import random
import re
import tempfile
import unicodedata
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from corpusforge import dataset
from corpusforge.dataset import (
    MANIFEST_COLUMNS,
    POLICIES,
    ManifestError,
    RecordingEntry,
    RecordingManifest,
    SplitAssignment,
    SplitError,
    audit_leakage,
    load_manifest,
    split,
    write_assignment,
)
from corpusforge.rechain import WordInventory

from oracles import audit_leakage_oracle, group_key, manifest_oracle, split_oracle

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

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    @pytest.mark.parametrize("field", MANIFEST_COLUMNS[:5])
    def test_pipe_in_an_id_field_is_error_naming_it(self, tmp_path, field, suffix):
        good = dict(zip(MANIFEST_COLUMNS, ["spk1", "s1", "b1", "m1", "hund", "0",
                                           "a|b.wav", "x|y"]))
        path = tmp_path / f"m{suffix}"
        write_manifest(path, [good, {**good, field: "x|y"}])
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        row = 3 if suffix == ".csv" else 2
        assert str(exc.value) == f"{path}: row {row}: {field} must not contain '|'"

    @pytest.mark.parametrize(
        "name, text, line",
        [("m.jsonl", b"[1, 2]\n\xe4", 2), ("m.csv", b"speaker_id\nx\n\xe4", 3)],
    )
    def test_bad_last_byte_fails_before_any_row_or_header_check(
        self, tmp_path, name, text, line
    ):
        # A lead byte with nothing after it fails only once the decoder
        # reaches the end of the file.
        path = tmp_path / name
        path.write_bytes(text)
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        assert str(exc.value) == f"{path}: line {line}: not UTF-8 text (byte 0xe4)"

    def test_oversized_cell_is_error_naming_file_and_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            f"{HEADER}\nspk1,s1,b1,m1,hund,0,a.wav,hund\n"
            f"spk1,s1,b1,m2,hund,0,b.wav,{'x' * 140_000}\n"
        )
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        assert str(exc.value) == (
            f"{path}: line 3: field larger than field limit (131072)"
        )
        assert csv.field_size_limit() == 131072  # the process-wide limit

    def test_pipe_in_audio_path_and_transcript_is_kept(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\nspk1,s1,b1,m1,hund,0,a|b.wav,x|y\n")
        (entry,) = load_manifest(path).entries
        assert (entry.audio_path, entry.transcript) == ("a|b.wav", "x|y")

    def test_manifest_holds_columns_and_builds_entries_once(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            f"{HEADER}\nspk1,s1,b1,m1, Hund ,+1,a.wav,hund\n"
            "spk1,s1,b1,m2,katze,0,b.wav,\n"
        )
        manifest = load_manifest(path)
        assert manifest.columns["word"] == ("hund", "katze")
        assert manifest.columns["repetition_index"] == (1, 0)
        assert manifest.entry_ids == ("spk1|s1|b1|m1|hund|1", "spk1|s1|b1|m2|katze|0")
        entries = manifest.entries
        assert entries is manifest.entries
        assert all(type(e) is RecordingEntry for e in entries)
        assert [e.entry_id for e in entries] == list(manifest.entry_ids)
        built = RecordingManifest(entries)
        assert built.entries is entries
        assert built == manifest and hash(built) == hash(manifest)
        assert built.entry_ids == manifest.entry_ids and len(built) == 2
        assert RecordingManifest(()) == RecordingManifest(entries=[])


def write_manifest(path: Path, rows: list[dict]) -> None:
    """Rows as a CSV with a header or as JSON Lines, by the file's suffix."""
    if path.suffix == ".csv":
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=HEADER.split(","))
            writer.writeheader()
            writer.writerows(rows)
    else:
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))


@contextmanager
def row_loop_calls():
    """Count the calls into the row-by-row manifest checks."""
    calls = []
    row_loop = dataset._manifest_from_rows

    def counted(*args):
        calls.append(args)
        return row_loop(*args)

    with mock.patch.object(dataset, "_manifest_from_rows", counted):
        yield calls


VALID_ROWS = [
    dict(zip(MANIFEST_COLUMNS, [spk, "s1", blk, mic, word, rep, f"{word}.wav", word]))
    for spk in ("spk1", "spk-2")
    for blk in ("b1", "b2")
    for mic in ("m1", "m2")
    for word in ("hund", " Katze ", "müde")
    for rep in ("0", "1")
]


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_valid_manifest_never_runs_the_row_loop(tmp_path, suffix):
    rows = [dict(row) for row in VALID_ROWS]
    if suffix == ".jsonl":  # JSON values the integer and text rules accept
        rows[0].update(speaker_id=0, repetition_index=2.0, transcript="")
        rows[1].update(repetition_index=3, audio_path=7)
    path = tmp_path / f"m{suffix}"
    write_manifest(path, rows)
    with row_loop_calls() as calls:
        manifest = load_manifest(path)
    assert calls == []
    assert manifest.entries == manifest_oracle(path).entries


ROW_ERRORS = [  # (field, bad value, message tail)
    ("session_id", "", "missing field(s) session_id"),
    ("repetition_index", "x", "repetition_index must be an integer, got 'x'"),
    ("repetition_index", "1.5", "repetition_index must be an integer, got '1.5'"),
    ("repetition_index", "-1", "repetition_index < 0"),
    ("word", "hu|nd", "word must not contain '|'"),
    ("microphone_id", "m|1", "microphone_id must not contain '|'"),
]
JSON_ROW_ERRORS = [
    ("repetition_index", True, "repetition_index must be an integer, got True"),
    ("repetition_index", 2.5, "repetition_index must be an integer, got 2.5"),
    ("transcript", None, "missing field(s) transcript"),
    ("speaker_id", "", "missing field(s) speaker_id"),
]


@pytest.mark.parametrize(
    "suffix, field, value, tail",
    [(".csv", *e) for e in ROW_ERRORS] + [(".jsonl", *e) for e in ROW_ERRORS]
    + [(".jsonl", *e) for e in JSON_ROW_ERRORS],
)
def test_each_row_error_runs_the_row_loop_once(tmp_path, suffix, field, value, tail):
    rows = [dict(row) for row in VALID_ROWS]
    rows[5][field] = value
    path = tmp_path / f"m{suffix}"
    write_manifest(path, rows)
    with row_loop_calls() as calls, pytest.raises(ManifestError) as exc:
        load_manifest(path)
    assert len(calls) == 1
    with pytest.raises(ManifestError) as expected:
        manifest_oracle(path)
    assert str(exc.value) == str(expected.value)
    assert tail in str(exc.value)


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
@pytest.mark.parametrize(
    "change", [{"word": "HUND"}, {"repetition_index": "+0"}, None]
)
def test_duplicate_and_empty_run_the_row_loop_once(tmp_path, suffix, change):
    rows = [] if change is None else [VALID_ROWS[0], {**VALID_ROWS[0], **change}]
    path = tmp_path / f"m{suffix}"
    write_manifest(path, rows)
    with row_loop_calls() as calls, pytest.raises(ManifestError) as exc:
        load_manifest(path)
    assert len(calls) == 1
    first = 2 if suffix == ".csv" else 1
    assert str(exc.value) == (
        f"{path}: manifest is empty" if change is None
        else f"{path}: duplicate recording key 'spk1|s1|b1|m1|hund|0' "
             f"at rows {first} and {first + 1}"
    )


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
# column lists its own (an empty transcript is good; a transcript over the
# csv module's 131,072-character field limit is not).
GOOD_CELLS = {
    "speaker_id": ["spk1", "spk2", "s,p"],
    "session_id": ["s1", "s-1"],
    "block_id": ["b1", "b\n2"],
    "microphone_id": ["m1", "m2"],
    "word": ["hund", " Hund ", "mu\u0308de", "m\u00fcde", '"q"'],
    "repetition_index": ["0", "1", " 2 ", "+3"],
    "audio_path": ["a.wav", "dir, with comma/b.wav", "a|b.wav"],
    "transcript": ["", "hund", "line\nbreak", "\u00e9", "x|y"],
    "mood": ["happy", ""],
}
# An id field (the first five columns) must not hold "|".
BAD_CELLS = {
    "speaker_id": ["", "a|b"],
    "session_id": ["", "s|1"],
    "block_id": ["", "|"],
    "microphone_id": ["", "m|"],
    "word": ["", " Hu|nd "],
    "repetition_index": ["-1", "x", "1.5"],
    "transcript": ["x" * 140_000],
}
GOOD_JSON = {
    "speaker_id": ["spk1", 7, 0],
    "word": ["hund", "mu\u0308de", 5],
    "repetition_index": [0, 1, "2", 3.0],
    "transcript": ["", "hund", 0],
}
BAD_JSON = {
    "repetition_index": [-1, 2.5, "x", [1], True],
    "transcript": [None, ["hund"], False],
    "word": ["", ["Hund"], True, "hu|nd"],
    "audio_path": ["", {"p": 1}],
    "speaker_id": ["", True, "a|b"],
    "session_id": ["", "s|1"],
}


def cell(rng: random.Random, good: dict, bad: dict, name: str):
    values = good.get(name, GOOD_CELLS[name])
    if rng.random() < 1 / 30:
        values = bad.get(name, [""])
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
        with row_loop_calls() as calls:
            assert outcome(load_manifest, path) == expected
    # What the examples exercised (pytest --hypothesis-show-statistics).
    kind, value = expected[0]
    event("loaded" if kind == "ok" else value.split(": ")[-1][:30])
    # The path the load took: the row loop runs only after a column check
    # fails; an error while reading comes before either.
    event("row loop" if calls else "column checks" if kind == "ok" else "read error")


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
                if rng.random() < (0.5 if name == "mood" else 0.985)
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


# -- split, audit_leakage and the inventory against the row-by-row oracles ---

# "a" and "a-b" order one way as key tuples and the other way once joined
# by "|" ("a-b|…" < "a|…"), so the canonical group order is exercised.
SPLIT_VALUES = {
    "speaker_id": ["a", "a-b", "spk2"],
    "session_id": ["s1", "s-1"],
    "block_id": ["b1", "b2", "b-3"],
    "microphone_id": ["m1", "m2"],
    "word": ["hund", "katze", "maus", "hu-nd"],
}
# Entries built in code skip the load checks: ("a|s1", "s1", …) and
# ("a", "s1|s1", …) share the entry_id "a|s1|s1|…".
PIPE_VALUES = {"speaker_id": ["a", "a|s1"], "session_id": ["s1", "s1|s1"]}


def split_entries(rng: random.Random, pipes: bool) -> list[RecordingEntry]:
    """Distinct recordings over small value sets, in shuffled order."""
    values = {
        name: rng.sample(choices, rng.randint(1, len(choices)))
        for name, choices in SPLIT_VALUES.items()
    }
    if pipes:
        for name, extra in PIPE_VALUES.items():
            values[name] = list(dict.fromkeys(values[name] + extra))
    keep = rng.choice([0.05, 0.2, 0.6, 1.0])
    entries = [
        RecordingEntry(spk, ses, blk, mic, word, rep, f"{word}_{n}.wav", word)
        for n, (spk, ses, blk, mic, word, rep) in enumerate(itertools.product(
            *values.values(), range(rng.randint(1, 2))
        ))
        if rng.random() < keep
    ]
    rng.shuffle(entries)
    return entries


def split_outcome(split_fn, audit_fn, manifest, policy, ratio, seed):
    """Everything a split and its audit produce, in order, or the error."""
    try:
        assignment = split_fn(manifest, policy, ratio, seed)
        audit = audit_fn(manifest, assignment)
    except SplitError as exc:
        return "error", str(exc)
    return (
        "ok", list(assignment.labels.items()),
        list(assignment.group_key_audit.items()),
        (assignment.policy, assignment.seed, assignment.train_ratio), audit,
    )


def audit_outcome(audit_fn, manifest, assignment):
    try:
        return "ok", audit_fn(manifest, assignment)
    except SplitError as exc:
        return "error", str(exc)


def loaded_pair(entries, suffix: str, tmp: str):
    """The entries written to a file, loaded by the package and the oracle."""
    path = Path(tmp) / f"manifest{suffix}"
    write_manifest(path, [dict(zip(MANIFEST_COLUMNS, e)) for e in entries])
    try:
        return load_manifest(path), manifest_oracle(path)
    except ManifestError:  # an empty manifest
        return None


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=True))
def test_split_and_audit_match_the_row_oracles(rng):
    pipes = rng.random() < 0.3
    entries = split_entries(rng, pipes)
    with tempfile.TemporaryDirectory() as tmp:
        source = rng.choice(["code", "code", ".csv", ".jsonl"])
        if pipes:  # the loaders reject "|" in an id field
            source = "code"
        if source == "code":
            manifest = oracle_manifest = RecordingManifest(entries)
        else:
            loaded = loaded_pair(entries, source, tmp)
            if loaded is None:
                return
            manifest, oracle_manifest = loaded
    policy = rng.choice(POLICIES) if rng.random() < 0.95 else "fancy"
    ratio = rng.choice([1e-9, 0.01, 0.5, 0.99, 1 - 1e-9, rng.random()])
    if rng.random() < 0.05:
        ratio = rng.choice([0, 1, -0.5, 1.5])
    seed = rng.choice([0, 1, 2, rng.randrange(2**32)])

    expected = split_outcome(
        split_oracle, audit_leakage_oracle, oracle_manifest, policy, ratio, seed
    )
    assert split_outcome(split, audit_leakage, manifest, policy, ratio, seed) == expected
    event(f"{source}: {expected[0]} {expected[1][:14] if expected[0] == 'error' else ''}")

    grouped: dict[str, list[str]] = {}
    for entry in oracle_manifest.entries:
        grouped.setdefault(entry.word, []).append(entry.audio_path)
    items = WordInventory.from_manifest(manifest).items
    assert list(items.items()) == [(w, tuple(refs)) for w, refs in grouped.items()]

    if expected[0] == "ok":  # one label flipped or dropped
        assignment = split_oracle(oracle_manifest, policy, ratio, seed)
        labels = dict(assignment.labels)
        victim = rng.choice(list(labels))
        if rng.random() < 0.5:
            labels[victim] = "test" if labels[victim] == "train" else "train"
        else:
            del labels[victim]
        corrupted = dataclasses.replace(assignment, labels=labels)
        assert audit_outcome(audit_leakage, manifest, corrupted) == audit_outcome(
            audit_leakage_oracle, oracle_manifest, corrupted
        )


def test_entries_sharing_an_entry_id_are_a_split_error():
    manifest = RecordingManifest((
        make_entry(speaker="a|s1", session="s1"),
        make_entry(word="katze"),
        make_entry(speaker="a", session="s1|s1"),
    ))
    message = "entry id 'a|s1|s1|b1|m1|hund|0' names more than one entry"
    with pytest.raises(SplitError, match=re.escape(message)):
        split(manifest, "natural", 0.5, seed=1)
