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
from typing import NamedTuple, Sequence

from .errors import CorpusForgeError, open_text, strict_int
from .jsonl import read_jsonl
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


@dataclass(frozen=True)
class RecordingManifest:
    """Validated recording entries in stable file order."""

    entries: tuple[RecordingEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


def _build_manifest(
    linenos: Sequence[int], rows: list[Sequence], source: str
) -> RecordingManifest:
    """Entries from rows of values in ``MANIFEST_COLUMNS`` order."""
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
    return RecordingManifest(tuple(entries))


def _jsonl_rows(path: Path) -> tuple[list[int], list[list]]:
    """Line numbers and value lists of the non-blank lines.

    A JSON array or object in a text field is an error naming the row and
    field; ``str()`` would turn it into text.
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
            if isinstance(value, (list, dict)) and name != "repetition_index":
                kind = "array" if isinstance(value, list) else "object"
                raise ManifestError(
                    f"{path}: row {lineno}: {name} must be a string or number, "
                    f"got a JSON {kind}"
                )
        linenos.append(lineno)
        rows.append(values)
    return linenos, rows


def _csv_rows(f, path: Path) -> tuple[range, list[Sequence]]:
    """Line numbers and value rows as ``csv.DictReader`` would give them.

    Blank records are skipped and not numbered (records count from 2, after
    the header), a short row pads with None, cells past the header are
    ignored, and a column named twice takes its last cell.
    """
    reader = csv.reader(f)
    header = next(reader, None)
    if header is None:
        raise ManifestError(f"{path}: no header row")
    missing = [c for c in MANIFEST_COLUMNS if c not in header]
    if missing:
        raise ManifestError(f"{path}: missing column(s) {', '.join(missing)}")
    extra = [c for c in header if c not in MANIFEST_COLUMNS]
    if extra:
        logger.warning("%s: ignoring unknown column(s) %s", path, ", ".join(extra))
    last = {name: i for i, name in enumerate(header)}
    index = [last[c] for c in MANIFEST_COLUMNS]
    pick, width = itemgetter(*index), max(index) + 1
    rows = [
        pick(row) if len(row) >= width
        else [row[i] if i < len(row) else None for i in index]
        for row in filter(None, reader)
    ]
    return range(2, len(rows) + 2), rows


def load_manifest(path: str | Path) -> RecordingManifest:
    """Load a manifest from CSV (with header) or JSONL, by file extension.

    Unknown extra columns are ignored with a warning; missing required
    columns or duplicate recording keys are errors naming the rows. A UTF-8
    byte order mark, as Excel writes, is skipped.
    """
    path = Path(path)
    if path.suffix.lower() in (".jsonl", ".json"):
        linenos, rows = _jsonl_rows(path)
    else:
        with open_text(path, ManifestError, "utf-8-sig", newline="") as f:
            linenos, rows = _csv_rows(f, path)
    return _build_manifest(linenos, rows, str(path))


# Each policy's group key as a tuple: (word,), (speaker, session, block) or
# (speaker, session, block, word).
_GROUP_KEYS = {
    "strict": itemgetter(slice(4, 5)),
    "mixed": itemgetter(slice(0, 3)),
    "natural": itemgetter(0, 1, 2, 4),
}


def _group_key_of(policy: str):
    try:
        return _GROUP_KEYS[policy]
    except KeyError:
        raise SplitError(
            f"unknown policy {policy!r}, expected one of {POLICIES}"
        ) from None


def group_key(entry: RecordingEntry, policy: str) -> tuple[str, ...]:
    return _group_key_of(policy)(entry)


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
    order.
    """
    if not 0 < train_ratio < 1:
        raise SplitError(f"train_ratio must be in (0, 1), got {train_ratio}")
    entries = manifest.entries
    entry_keys = list(map(_group_key_of(policy), entries))
    sizes = Counter(entry_keys)
    if len(sizes) < 2:
        raise SplitError(
            f"policy {policy!r} yields a single group; cannot fill both sides"
        )
    canonical = sorted(sizes)
    keys = canonical.copy()
    random.Random(seed).shuffle(keys)

    target = train_ratio * len(entries)
    train_keys: list[tuple[str, ...]] = []
    count = 0
    boundary = len(keys)
    for i, key in enumerate(keys):
        train_keys.append(key)
        count += sizes[key]
        if count >= target:
            boundary = i + 1
            break
    test_keys = keys[boundary:]
    if not test_keys:
        smallest = min(train_keys, key=lambda k: (sizes[k], k))
        train_keys.remove(smallest)
        test_keys = [smallest]

    side_of = dict.fromkeys(train_keys, "train")
    side_of.update(dict.fromkeys(test_keys, "test"))
    labels = dict(zip(
        [entry.entry_id for entry in entries], map(side_of.__getitem__, entry_keys)
    ))
    audit = {"|".join(key): side_of[key] for key in canonical}
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
    entries = manifest.entries
    sides = list(map(assignment.labels.get, [e.entry_id for e in entries]))
    train, test = sides.count("train"), sides.count("test")
    if train + test != len(sides):
        entry = next(
            e for e, side in zip(entries, sides) if side not in ("train", "test")
        )
        raise SplitError(f"entry {entry.entry_id!r} not covered by assignment")
    entry_keys = list(map(_group_key_of(assignment.policy), entries))
    # A group on both sides shows up as two distinct (key, side) pairs.
    spanning = len(set(zip(entry_keys, sides))) - len(set(entry_keys))
    train_words = {e.word for e, side in zip(entries, sides) if side == "train"}
    test_words = {e.word for e, side in zip(entries, sides) if side == "test"}
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
