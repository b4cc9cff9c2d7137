"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the production code paths: the edit
distance follows the textbook recursion, the weighted-selection oracle
recomputes scores from scratch at every step, the text normalizer deletes
punctuation through one ``str.translate`` table, the maximum-coverage
reference tries every subset, the manifest loader reads rows through
``csv.DictReader`` and per-column dict lookups, the split and leakage
audit group ``RecordingEntry`` rows by key tuples, the lexicon parser builds
every phoneme tuple as it reads, the plan renderer reads and fades every
recording anew for each plan, and the pool generator only uses the public
constructors.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import random
import struct
import unicodedata
from collections import Counter
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from corpusforge.audio import AudioError, ConcatSpec, read_wav
from corpusforge.dataset import (
    MANIFEST_COLUMNS,
    POLICIES,
    LeakageAudit,
    ManifestError,
    RecordingEntry,
    RecordingManifest,
    SplitAssignment,
    SplitError,
)
from corpusforge.lexicon import Lexicon, LexiconError, PhonemeSequence
from corpusforge.rechain import SentencePlan
from corpusforge.selector import (
    CandidatePool,
    CandidateWord,
    PhonemeWeights,
    SelectionError,
)
from corpusforge.textnorm import PUNCTUATION, normalize_word


def levenshtein_recursive(ref: Sequence[str], hyp: Sequence[str]) -> int:
    """Plain recursive edit distance definition, memoized."""

    @lru_cache(maxsize=None)
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if ref[i - 1] == hyp[j - 1] else 1
        return min(d(i - 1, j - 1) + cost, d(i - 1, j) + 1, d(i, j - 1) + 1)

    return d(len(ref), len(hyp))


def normalize_text_oracle(text: str) -> str:
    """NFC, lowercase, every ``PUNCTUATION`` mark deleted by one
    ``str.translate`` table, whitespace runs collapsed to one space."""
    table = str.maketrans("", "", PUNCTUATION)
    text = unicodedata.normalize("NFC", text).lower().translate(table)
    return " ".join(text.split())


def levenshtein_table_oracle(
    ref: Sequence[str], hyp: Sequence[str]
) -> list[list[int]]:
    """The plain Wagner-Fischer table, one row per reference token."""
    table = [list(range(len(hyp) + 1))]
    for i, r in enumerate(ref, start=1):
        prev, row = table[-1], [i]
        for j, h in enumerate(hyp, start=1):
            cost = 0 if r == h else 1
            row.append(min(prev[j - 1] + cost, prev[j] + 1, row[j - 1] + 1))
        table.append(row)
    return table


def edit_decomposition_oracle(
    ref: Sequence[str], hyp: Sequence[str]
) -> tuple[int, int, int]:
    """(subs, dels, ins) from a textbook full-table DP.

    The walk back from the corner of :func:`levenshtein_table_oracle` takes
    the first move that explains the cell in the order documented for
    ``metrics.edit_counts``: diagonal (match or substitution), then up
    (deletion), then left (insertion).
    """
    table = levenshtein_table_oracle(ref, hyp)
    subs = dels = ins = 0
    i, j = len(ref), len(hyp)
    while (i, j) != (0, 0):
        here = table[i][j]
        cost = 1 if i and j and ref[i - 1] != hyp[j - 1] else 0
        if i and j and here == table[i - 1][j - 1] + cost:
            subs += cost
            i, j = i - 1, j - 1
        elif i and here == table[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return subs, dels, ins


def random_pool(
    rng: random.Random, max_words: int = 12, alphabet_size: int = 5
) -> CandidatePool:
    """Random candidate pool with a bounded biphone universe.

    With `alphabet_size` phonemes there are at most alphabet_size**2
    distinct biphones; 4 symbols keep the universe at <= 16, 5 at <= 25.
    """
    alphabet = [chr(ord("a") + i) for i in range(alphabet_size)]
    n = rng.randint(1, max_words)
    items = []
    for i in range(n):
        length = rng.randint(1, 6)
        seq = tuple(rng.choice(alphabet) for _ in range(length))
        items.append((f"w{i:02d}", seq))
    return CandidatePool.build(items)


def gbc_oracle_trace(pool: CandidatePool, k: int) -> list[str]:
    """Replay coverage selection by rescanning every candidate at each step.

    Straight-line evaluation: the first candidate with the strictly largest
    number of uncovered biphones wins; selection ends at `k` picks or when
    no candidate adds a biphone.
    """
    remaining: list[CandidateWord] = list(pool.words)
    covered: set = set()
    trace: list[str] = []
    while remaining and len(trace) < k:
        best = None
        best_gain = 0
        for cand in remaining:
            gain = len(cand.biphones - covered)
            if gain > best_gain:
                best, best_gain = cand, gain
        if best is None:
            break
        covered |= best.biphones
        remaining.remove(best)
        trace.append(best.word)
    return trace


def pwps_oracle_trace(
    pool: CandidatePool, k_prime: int, weights: PhonemeWeights
) -> list[str]:
    """Replay weighted selection with from-scratch scoring at every step.

    Straight-line evaluation: no incremental counts, no shared state with
    the implementation. Scores recompute the occurrence counter over the
    already-picked words each time.
    """
    remaining: list[CandidateWord] = list(pool.words)
    picked: list[CandidateWord] = []
    trace: list[str] = []
    while remaining and len(trace) < k_prime:
        counts = Counter(p for cand in picked for p in cand.phonemes)
        best = None
        best_score = 0.0
        for cand in remaining:
            score = 0.0
            for p in sorted(set(cand.phonemes)):
                if p in weights.weights:
                    score += weights.weights[p] / (counts[p] + 1)
            if score > best_score:
                best, best_score = cand, score
        if best is None:
            best = remaining[0]
        picked.append(best)
        remaining.remove(best)
        trace.append(best.word)
    return trace


def brute_force_max_coverage(
    pool: CandidatePool, k: int
) -> tuple[tuple[str, ...], int]:
    """Exhaustive maximum-coverage reference for small pools (<= 20 words).

    Returns the subset of size <= k with the largest biphone union and its
    coverage; ties go to the lexicographically smallest index subset in
    canonical pool order. Exponential in the pool size.
    """
    n = len(pool.words)
    if n == 0:
        raise SelectionError("candidate pool is empty")
    if n > 20:
        raise SelectionError(f"brute force limited to 20 words, got {n}")
    if k < 1:
        raise SelectionError(f"budget k must be >= 1, got {k}")
    universe: dict = {}
    for cand in pool.words:
        for bp in sorted(cand.biphones):
            universe.setdefault(bp, len(universe))
    masks = []
    for cand in pool.words:
        m = 0
        for bp in cand.biphones:
            m |= 1 << universe[bp]
        masks.append(m)
    best_idx: tuple[int, ...] = ()
    best_cov = 0
    for r in range(1, min(k, n) + 1):
        for combo in itertools.combinations(range(n), r):
            m = 0
            for i in combo:
                m |= masks[i]
            cov = bin(m).count("1")
            if cov > best_cov or (cov == best_cov and combo < best_idx):
                best_idx, best_cov = combo, cov
    return tuple(pool.words[i].word for i in best_idx), best_cov


oracle_logger = logging.getLogger("oracles.manifest")


def _oracle_build_manifest(rows: list[tuple[int, dict]], source: str) -> RecordingManifest:
    entries: list[RecordingEntry] = []
    seen: dict[tuple, int] = {}
    for lineno, row in rows:
        missing = [
            c
            for c in MANIFEST_COLUMNS
            if row.get(c) is None or (row.get(c) == "" and c != "transcript")
        ]
        if missing:
            raise ManifestError(
                f"{source}: row {lineno}: missing field(s) {', '.join(missing)}"
            )
        rep = row["repetition_index"]
        try:
            # The integer rule of cli._int_value: no bools, no fractions.
            if isinstance(rep, bool) or (
                isinstance(rep, float) and not rep.is_integer()
            ):
                raise ValueError(rep)
            rep = int(rep)
        except (TypeError, ValueError):
            raise ManifestError(
                f"{source}: row {lineno}: repetition_index must be an integer, "
                f"got {row['repetition_index']!r}"
            ) from None
        if rep < 0:
            raise ManifestError(f"{source}: row {lineno}: repetition_index < 0")
        entry = RecordingEntry(
            speaker_id=str(row["speaker_id"]),
            session_id=str(row["session_id"]),
            block_id=str(row["block_id"]),
            microphone_id=str(row["microphone_id"]),
            word=normalize_word(str(row["word"])),
            repetition_index=rep,
            audio_path=str(row["audio_path"]),
            transcript=str(row["transcript"]),
        )
        key = (
            entry.speaker_id,
            entry.session_id,
            entry.block_id,
            entry.microphone_id,
            entry.word,
            entry.repetition_index,
        )
        for name in MANIFEST_COLUMNS[:5]:
            if "|" in getattr(entry, name):
                raise ManifestError(
                    f"{source}: row {lineno}: {name} must not contain '|'"
                )
        if key in seen:
            entry_id = "|".join(str(part) for part in key)
            raise ManifestError(
                f"{source}: duplicate recording key {entry_id!r} "
                f"at rows {seen[key]} and {lineno}"
            )
        seen[key] = lineno
        entries.append(entry)
    if not entries:
        raise ManifestError(f"{source}: manifest is empty")
    return RecordingManifest(tuple(entries))


def _oracle_text(path: Path) -> str:
    """The whole file decoded, byte order mark dropped; not UTF-8 fails first."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = before.count(b"\n") + 1
        raise ManifestError(
            f"{path}: line {line}: not UTF-8 text (byte 0x{data[exc.start]:02x})"
        ) from None
    return text.removeprefix("\ufeff")


def manifest_oracle(path: str | Path) -> RecordingManifest:
    """``load_manifest`` as one dict per row: ``csv.DictReader`` or ``json.loads``.

    Same contract, messages and warnings (logged to ``oracles.manifest``);
    every row is read before the first is checked.
    """
    path = Path(path)
    text = _oracle_text(path)
    rows: list[tuple[int, dict]] = []
    if path.suffix.lower() in (".jsonl", ".json"):
        with io.StringIO(text, newline=None) as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ManifestError(
                        f"{path}: row {lineno}: invalid JSON: {exc}"
                    ) from exc
                if not isinstance(record, dict):
                    raise ManifestError(
                        f"{path}: row {lineno}: expected a JSON object"
                    )
                extra = set(record) - set(MANIFEST_COLUMNS)
                if extra:
                    oracle_logger.warning(
                        "%s: row %d: ignoring unknown field(s) %s",
                        path, lineno, ", ".join(sorted(extra)),
                    )
                for c in MANIFEST_COLUMNS:
                    kind = {list: "array", dict: "object", bool: "boolean"}.get(
                        type(record.get(c))
                    )
                    if kind and c != "repetition_index":
                        raise ManifestError(
                            f"{path}: row {lineno}: {c} must be a string or "
                            f"number, got a JSON {kind}"
                        )
                rows.append((lineno, record))
    else:
        with io.StringIO(text, newline="") as f:
            reader = csv.DictReader(f)
            try:
                records = list(reader)
            except csv.Error as exc:
                # DictReader.line_num counts only rows it returned.
                raise ManifestError(
                    f"{path}: line {reader.reader.line_num}: {exc}"
                ) from None
            if reader.fieldnames is None:
                raise ManifestError(f"{path}: no header row")
            missing = [c for c in MANIFEST_COLUMNS if c not in reader.fieldnames]
            if missing:
                raise ManifestError(
                    f"{path}: missing column(s) {', '.join(missing)}"
                )
            extra = [c for c in reader.fieldnames if c not in MANIFEST_COLUMNS]
            if extra:
                oracle_logger.warning(
                    "%s: ignoring unknown column(s) %s", path, ", ".join(extra)
                )
            rows.extend(enumerate(records, start=2))
    return _oracle_build_manifest(rows, str(path))


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


def split_oracle(
    manifest: RecordingManifest, policy: str, train_ratio: float, seed: int
) -> SplitAssignment:
    """``split`` over ``RecordingEntry`` rows and their group key tuples.

    The row-by-row split the column version replaced, plus its one new rule:
    two entries with one ``entry_id`` are an error naming the first such id
    in entry order.
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
    ids = [entry.entry_id for entry in entries]
    labels = dict(zip(ids, map(side_of.__getitem__, entry_keys)))
    if len(labels) != len(ids):
        entry_id = next(i for i in ids if ids.count(i) > 1)
        raise SplitError(f"entry id {entry_id!r} names more than one entry")
    audit = {"|".join(key): side_of[key] for key in canonical}
    return SplitAssignment(
        policy=policy,
        seed=seed,
        train_ratio=train_ratio,
        labels=labels,
        group_key_audit=audit,
    )


def audit_leakage_oracle(
    manifest: RecordingManifest, assignment: SplitAssignment
) -> LeakageAudit:
    """``audit_leakage`` over ``RecordingEntry`` rows and group key tuples."""
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


def lexicon_oracle(source: Iterable[str]) -> Lexicon:
    """``parse_lexicon`` checking each line in full and splitting every
    pronunciation into its phoneme tuple as it is read."""
    entries: dict[str, PhonemeSequence] = {}
    seen_line: dict[str, int] = {}
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        word_field, sep, pron_field = line.partition("\t")
        if not sep or not word_field.strip():
            raise LexiconError(
                f"line {lineno}: expected 'word<TAB>phoneme ...', got {line!r}"
            )
        word = unicodedata.normalize("NFC", word_field).strip().lower()
        phonemes = tuple(pron_field.split())
        if not phonemes:
            raise LexiconError(f"line {lineno}: empty pronunciation for {word!r}")
        if word in entries:
            raise LexiconError(
                f"duplicate entry for {word!r} "
                f"(lines {seen_line[word]} and {lineno})"
            )
        entries[word] = phonemes
        seen_line[word] = lineno
    return Lexicon(entries)


def concat_oracle(
    plan: SentencePlan, audio_root: str | Path, spec: ConcatSpec
) -> bytes:
    """The WAV file ``concat`` writes for one plan, built from that plan alone.

    Every recording is checked and read for this plan, each clip is faded
    in float64 and rounded, the pieces and gaps are joined with one
    ``np.concatenate``, and :func:`wav_file_oracle` makes the file's bytes.
    Raises what the command raises for the plan, with the same message.
    """
    root = Path(audio_root)
    clips = []
    for _, ref in plan.words:
        path = root / ref
        if not path.is_file():
            raise AudioError(f"recording not found: {path}")
        clips.append(read_wav(path))
    rates = sorted({c.sample_rate for c in clips})
    if len(rates) > 1:
        raise AudioError(f"mixed sample rates: {rates}")
    rate = rates[0]
    gap = (spec.gap_ms * rate + 500) // 1000
    fade = (spec.fade_ms * rate + 500) // 1000
    shortest = min(len(c.samples) for c in clips)
    if fade > shortest // 2:
        raise AudioError(
            f"fade of {fade} samples exceeds half the shortest clip ({shortest})"
        )
    pieces = []
    for i, clip in enumerate(clips):
        if i:
            pieces.append(np.zeros(gap, dtype=np.int16))
        samples = np.asarray(clip.samples)
        if fade:
            faded = samples.astype(np.float64)
            ramp = np.arange(fade, dtype=np.float64) / fade
            faded[:fade] *= ramp
            faded[-fade:] *= ramp[::-1]
            samples = np.round(faded).astype(np.int16)
        pieces.append(samples)
    return wav_file_oracle(np.concatenate(pieces), rate)


def wav_file_oracle(samples, rate: int) -> bytes:
    """The canonical 16-bit mono PCM WAV file of `samples` at `rate`.

    The 44-byte header is built field by field, and numpy converts the
    samples (any int16 sequence or buffer) to little-endian bytes.
    """
    pcm = np.asarray(samples, dtype=np.int16).astype("<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(pcm))
    return header + pcm
