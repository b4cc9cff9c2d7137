"""Recording manifests and leakage-controlled train/test splits.

A manifest row describes one clip: who spoke it, in which session and
repetition block, over which microphone, which word, plus audio path and
transcript. Splits never cut through a policy's grouping unit, so
recordings that must stay together (e.g. all microphone copies of one
utterance) always land on the same side:

* ``strict``  groups by word: zero lexical overlap between sides.
* ``mixed``   groups by (speaker, session, block): a whole repetition block
  moves as one, so no microphone copy of a session block leaks across.
* ``natural`` groups by (speaker, session, block, word): individual
  per-word recording events move as one, giving more diverse combinations
  than ``mixed`` while still preventing microphone leakage.
"""

from __future__ import annotations

import csv
import logging
import random
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import CorpusForgeError, open_text, strict_int
from .jsonl import NON_TEXT_KINDS, read_jsonl
from .textnorm import normalize_word

logger = logging.getLogger(__name__)

POLICIES = ("strict", "mixed", "natural")

MANIFEST_COLUMNS = (
    "speaker_id",
    "session_id",
    "block_id",
    "microphone_id",
    "word",
    "repetition_index",
    "audio_path",
    "transcript",
)
_COLUMN_SET = frozenset(MANIFEST_COLUMNS)


class ManifestError(CorpusForgeError):
    """Malformed manifest input."""


class SplitError(CorpusForgeError):
    """Split cannot be produced (bad ratio, single group, ...)."""


class RecordingEntry(NamedTuple):
    """One manifest row, its fields in ``MANIFEST_COLUMNS`` order."""

    speaker_id: str
    session_id: str
    block_id: str
    microphone_id: str
    word: str
    repetition_index: int
    audio_path: str
    transcript: str

    @property
    def key(self) -> tuple[str, str, str, str, str, int]:
        return self[:6]

    @property
    def entry_id(self) -> str:
        return f"{self[0]}|{self[1]}|{self[2]}|{self[3]}|{self[4]}|{self[5]}"


class RecordingManifest:
    """Validated recordings in stable file order, held column by column.

    ``columns`` maps each name in ``MANIFEST_COLUMNS`` to the tuple of its
    values, and ``entry_ids`` holds each row's ``entry_id``; both are built
    once. ``entries`` builds the ``RecordingEntry`` rows on first access.
    ``RecordingManifest(entries)`` takes rows built in code, unchecked.
    """

    __slots__ = ("columns", "entry_ids", "_entries")

    def __init__(self, entries: Iterable[RecordingEntry]):
        self._entries = tuple(entries)
        values = list(zip(*self._entries)) or [()] * len(MANIFEST_COLUMNS)
        self.columns = dict(zip(MANIFEST_COLUMNS, values))
        self.entry_ids = tuple([
            f"{s}|{t}|{b}|{m}|{w}|{r}" for s, t, b, m, w, r in zip(*values[:6])
        ])

    @classmethod
    def _of_columns(
        cls, values: Sequence[tuple], entry_ids: tuple[str, ...]
    ) -> "RecordingManifest":
        manifest = cls.__new__(cls)
        manifest.columns = dict(zip(MANIFEST_COLUMNS, values))
        manifest.entry_ids = entry_ids
        manifest._entries = None
        return manifest

    @property
    def entries(self) -> tuple[RecordingEntry, ...]:
        if self._entries is None:
            self._entries = tuple(map(
                RecordingEntry._make, zip(*self.columns.values())
            ))
        return self._entries

    def __len__(self) -> int:
        return len(self.entry_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordingManifest):
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self) -> int:
        return hash(tuple(self.columns.values()))


def _manifest_from_rows(
    linenos: Sequence[int], rows: Iterable[Sequence], source: str
) -> RecordingManifest:
    """Check rows of values in ``MANIFEST_COLUMNS`` order one by one.

    The exact checks, naming the first bad row; ``_build_manifest`` runs
    them only when a column check fails.
    """
    entries: list[RecordingEntry] = []
    seen: dict[tuple, int] = {}
    words: dict[str, str] = {}  # raw word -> normalized; words repeat per mic/rep
    make = RecordingEntry._make
    for lineno, v in zip(linenos, rows):
        # "" and None are falsy, so a row passing this cheap test has every
        # field; a row failing it (a JSON 0, say) gets the exact check.
        if not all(v[:7]) or v[7] is None:
            missing = [
                c
                for c, x in zip(MANIFEST_COLUMNS, v)
                if x is None or (x == "" and c != "transcript")
            ]
            if missing:
                raise ManifestError(
                    f"{source}: row {lineno}: missing field(s) {', '.join(missing)}"
                )
        speaker, session, block, mic, word, rep, audio, transcript = v
        try:
            # A CSV cell is always a str; only a JSON value needs the checks.
            rep = int(rep) if type(rep) is str else strict_int(rep)
        except (TypeError, ValueError):
            raise ManifestError(
                f"{source}: row {lineno}: repetition_index must be an integer, "
                f"got {rep!r}"
            ) from None
        if rep < 0:
            raise ManifestError(f"{source}: row {lineno}: repetition_index < 0")
        word = str(word)
        normalized = words.get(word)
        if normalized is None:
            normalized = words[word] = normalize_word(word)
        entry = make((
            str(speaker), str(session), str(block), str(mic),
            normalized, rep, str(audio), str(transcript),
        ))
        for name, value in zip(MANIFEST_COLUMNS, entry[:5]):
            if "|" in value:
                raise ManifestError(
                    f"{source}: row {lineno}: {name} must not contain '|'"
                )
        key = entry[:6]
        if key in seen:
            raise ManifestError(
                f"{source}: duplicate recording key {entry.entry_id!r} "
                f"at rows {seen[key]} and {lineno}"
            )
        seen[key] = lineno
        entries.append(entry)
    if not entries:
        raise ManifestError(f"{source}: manifest is empty")
    return RecordingManifest(entries)


def _checked_columns(
    columns: list[tuple], from_json: bool
) -> RecordingManifest | None:
    """The manifest if every check passes column by column, else None."""
    if not columns[0]:
        return None
    for column in columns[:7]:
        # "" and None are falsy; a column failing all() (a JSON 0, say)
        # gets the exact test.
        if not all(column) and (None in column or "" in column):
            return None
    if None in columns[7]:
        return None
    cells = columns[5]
    try:
        if from_json:  # 1, 1.0 and true are one set member: check each value
            reps = tuple(map(strict_int, cells))
            rep_texts = tuple(map(str, reps))
        else:  # a CSV cell is text: convert each distinct one once
            rep_of = {cell: int(cell) for cell in set(cells)}
            text_of = {cell: str(rep) for cell, rep in rep_of.items()}
            reps = tuple(map(rep_of.__getitem__, cells))
            rep_texts = tuple(map(text_of.__getitem__, cells))
    except (TypeError, ValueError):
        return None
    if min(reps) < 0:
        return None
    if from_json:
        columns = [tuple(map(str, column)) for column in columns]
    normalized = {word: normalize_word(word) for word in set(columns[4])}
    words = tuple(map(normalized.__getitem__, columns[4]))
    # The text of RecordingEntry.entry_id, row by row.
    ids = tuple(map("|".join, zip(*columns[:4], words, rep_texts)))
    # Each id holds exactly its five separators when no field holds "|",
    # and then encodes its key one to one, so equal ids are equal keys.
    if "".join(ids).count("|") != 5 * len(ids) or len(set(ids)) != len(ids):
        return None
    return RecordingManifest._of_columns(
        [*columns[:4], words, reps, *columns[6:]], ids
    )


def _build_manifest(
    linenos: Sequence[int], columns: list[tuple], source: str, from_json: bool
) -> RecordingManifest:
    """The manifest of columns in ``MANIFEST_COLUMNS`` order, each checked.

    The checks run column by column; if any fails, the row loop runs them
    again row by row for the exact message and row.
    """
    manifest = _checked_columns(columns, from_json)
    if manifest is None:
        manifest = _manifest_from_rows(linenos, zip(*columns), source)
    return manifest


def _jsonl_columns(path: Path) -> tuple[list[int], list[tuple]]:
    """Line numbers and value columns of the non-blank lines.

    A JSON array, object or boolean in a text field is an error naming the
    row and field; ``str()`` would turn it into text.
    """
    linenos, rows = [], []
    for lineno, record in read_jsonl(path, ManifestError):
        extra = record.keys() - _COLUMN_SET
        if extra:
            logger.warning(
                "%s: row %d: ignoring unknown field(s) %s",
                path, lineno, ", ".join(sorted(extra)),
            )
        values = [record.get(c) for c in MANIFEST_COLUMNS]
        for name, value in zip(MANIFEST_COLUMNS, values):
            kind = NON_TEXT_KINDS.get(type(value))
            if kind and name != "repetition_index":
                raise ManifestError(
                    f"{path}: row {lineno}: {name} must be a string or number, "
                    f"got a JSON {kind}"
                )
        linenos.append(lineno)
        rows.append(values)
    return linenos, list(zip(*rows)) or [()] * len(MANIFEST_COLUMNS)


def _csv_columns(f, path: Path) -> tuple[range, list[tuple]]:
    """Line numbers and value columns as ``csv.DictReader`` would give them.

    Blank records are skipped and not numbered (records count from 2, after
    the header), a short row pads with None, cells past the header are
    ignored, and a column named twice takes its last cell.
    """
    # Every record first, so that text that is not UTF-8 fails before the
    # header is checked, wherever the bad byte sits.
    reader = csv.reader(f)
    try:
        records = list(reader)
    except csv.Error as exc:  # a cell over csv.field_size_limit()
        f.read()  # a bad byte further on still comes first
        raise ManifestError(f"{path}: line {reader.line_num}: {exc}") from None
    if not records:
        raise ManifestError(f"{path}: no header row")
    header = records[0]
    missing = [c for c in MANIFEST_COLUMNS if c not in header]
    if missing:
        raise ManifestError(f"{path}: missing column(s) {', '.join(missing)}")
    extra = [c for c in header if c not in MANIFEST_COLUMNS]
    if extra:
        logger.warning("%s: ignoring unknown column(s) %s", path, ", ".join(extra))
    last = {name: i for i, name in enumerate(header)}
    index = [last[c] for c in MANIFEST_COLUMNS]
    width = max(index) + 1
    rows = list(filter(None, records[1:]))
    if min(map(len, rows), default=width) < width:
        rows = [[row[i] if i < len(row) else None for i in index] for row in rows]
        index = range(len(MANIFEST_COLUMNS))
    columns = [tuple(map(itemgetter(i), rows)) for i in index]
    return range(2, len(rows) + 2), columns


def load_manifest(path: str | Path) -> RecordingManifest:
    """Load a manifest from CSV (with header) or JSONL, by file extension.

    Unknown extra columns are ignored with a warning; missing required
    columns, an id field holding "|" or duplicate recording keys are errors
    naming the rows. A UTF-8 byte order mark, as Excel writes, is skipped.
    """
    path = Path(path)
    from_json = path.suffix.lower() in (".jsonl", ".json")
    if from_json:
        linenos, columns = _jsonl_columns(path)
    else:
        with open_text(path, ManifestError, newline="") as f:
            linenos, columns = _csv_columns(f, path)
    return _build_manifest(linenos, columns, str(path), from_json)


# Each policy's group key columns: (word,), (speaker, session, block) or
# (speaker, session, block, word).
_GROUP_COLUMNS = {
    "strict": ("word",),
    "mixed": ("speaker_id", "session_id", "block_id"),
    "natural": ("speaker_id", "session_id", "block_id", "word"),
}


def _group_codes(
    manifest: RecordingManifest, policy: str
) -> tuple[list[tuple[str, ...]], list[int]]:
    """The policy's group keys in first-seen order, and each entry's index
    into them."""
    try:
        names = _GROUP_COLUMNS[policy]
    except KeyError:
        raise SplitError(
            f"unknown policy {policy!r}, expected one of {POLICIES}"
        ) from None
    code_of: dict[tuple[str, ...], int] = {}
    codes = [
        code_of.setdefault(key, len(code_of))
        for key in zip(*[manifest.columns[name] for name in names])
    ]
    return list(code_of), codes


@dataclass(frozen=True)
class SplitAssignment:
    """Per-entry train/test labels plus the group-level audit trail."""

    policy: str
    seed: int
    train_ratio: float
    labels: dict[str, str]  # entry_id -> "train" | "test"
    group_key_audit: dict[str, str]  # "|"-joined group key -> side


def split(
    manifest: RecordingManifest, policy: str, train_ratio: float, seed: int
) -> SplitAssignment:
    """Assign every entry to train or test without cutting any group.

    Groups (by the policy's key) are shuffled with a seeded permutation of
    their canonical key order, then assigned to train until the train entry
    count first reaches ``train_ratio * total``; the rest go to test. If
    that leaves test empty, the smallest train group moves over. The result
    depends only on (manifest content, policy, ratio, seed), not on row
    order. Two entries with one ``entry_id`` are an error.
    """
    if not 0 < train_ratio < 1:
        raise SplitError(f"train_ratio must be in (0, 1), got {train_ratio}")
    groups, codes = _group_codes(manifest, policy)
    if len(groups) < 2:
        raise SplitError(
            f"policy {policy!r} yields a single group; cannot fill both sides"
        )
    sizes = Counter(codes)
    # By key tuple, not by the "|"-joined audit key: ("a", "x") comes
    # before ("a-b", "x"), but "a-b|x" before "a|x".
    canonical = sorted(range(len(groups)), key=groups.__getitem__)
    order = canonical.copy()
    random.Random(seed).shuffle(order)

    target = train_ratio * len(codes)
    train: list[int] = []
    count = 0
    boundary = len(order)
    for i, code in enumerate(order):
        train.append(code)
        count += sizes[code]
        if count >= target:
            boundary = i + 1
            break
    test = order[boundary:]
    if not test:
        smallest = min(train, key=lambda c: (sizes[c], groups[c]))
        train.remove(smallest)
        test = [smallest]

    side_of = ["train"] * len(groups)
    for code in test:
        side_of[code] = "test"
    labels = dict(zip(manifest.entry_ids, map(side_of.__getitem__, codes)))
    if len(labels) != len(codes):
        entry_id = next(i for i, n in Counter(manifest.entry_ids).items() if n > 1)
        raise SplitError(f"entry id {entry_id!r} names more than one entry")
    audit = {"|".join(groups[code]): side_of[code] for code in canonical}
    return SplitAssignment(
        policy=policy,
        seed=seed,
        train_ratio=train_ratio,
        labels=labels,
        group_key_audit=audit,
    )


@dataclass(frozen=True)
class LeakageAudit:
    """Recomputed leakage figures for a split; spanning groups must be 0."""

    policy: str
    total_entries: int
    train_entries: int
    test_entries: int
    realized_train_ratio: float
    spanning_group_keys: int
    vocabulary_overlap: int


def audit_leakage(
    manifest: RecordingManifest, assignment: SplitAssignment
) -> LeakageAudit:
    """Recompute group sides from the labels and report leakage figures.

    Works from the labels alone (not the stored audit map), so a corrupted
    assignment shows up as spanning group keys.
    """
    entry_ids = manifest.entry_ids
    sides = list(map(assignment.labels.get, entry_ids))
    train, test = sides.count("train"), sides.count("test")
    if train + test != len(sides):
        entry_id = next(
            i for i, side in zip(entry_ids, sides) if side not in ("train", "test")
        )
        raise SplitError(f"entry {entry_id!r} not covered by assignment")
    groups, codes = _group_codes(manifest, assignment.policy)
    # A group on both sides shows up as two distinct (group, side) pairs.
    spanning = len(set(zip(codes, sides))) - len(groups)
    words = manifest.columns["word"]
    train_words = {w for w, side in zip(words, sides) if side == "train"}
    test_words = {w for w, side in zip(words, sides) if side == "test"}
    total = train + test
    return LeakageAudit(
        policy=assignment.policy,
        total_entries=total,
        train_entries=train,
        test_entries=test,
        realized_train_ratio=train / total,
        spanning_group_keys=spanning,
        vocabulary_overlap=len(train_words & test_words),
    )


def write_assignment(assignment: SplitAssignment, path: str | Path) -> None:
    """Write the assignment as JSONL rows of {entry_id, side}."""
    # The bytes of json.dumps({"entry_id": ..., "side": ...}) per line.
    text = "".join([
        f'{{"entry_id": {encode_basestring_ascii(entry_id)}, '
        f'"side": {encode_basestring_ascii(side)}}}\n'
        for entry_id, side in assignment.labels.items()
    ])
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
