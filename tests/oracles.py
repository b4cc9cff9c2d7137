"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the production code paths: the edit
distance follows the textbook recursion, the weighted-selection oracle
recomputes scores from scratch at every step, the maximum-coverage
reference tries every subset, the manifest loader reads rows through
``csv.DictReader`` and per-column dict lookups, the lexicon parser builds
every phoneme tuple as it reads, and the pool generator only uses the
public constructors.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import random
import unicodedata
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from corpusforge.dataset import (
    MANIFEST_COLUMNS,
    ManifestError,
    RecordingEntry,
    RecordingManifest,
)
from corpusforge.lexicon import Lexicon, LexiconError, PhonemeSequence
from corpusforge.selector import (
    CandidatePool,
    CandidateWord,
    PhonemeWeights,
    SelectionError,
)
from corpusforge.textnorm import normalize_word


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


def edit_decomposition_oracle(
    ref: Sequence[str], hyp: Sequence[str]
) -> tuple[int, int, int]:
    """(subs, dels, ins) from a textbook full-table DP.

    The table is the plain Wagner-Fischer recurrence. The walk back from
    the corner takes the first move that explains the cell in the order
    documented for ``metrics.edit_counts``: diagonal (match or
    substitution), then up (deletion), then left (insertion).
    """
    n, m = len(ref), len(hyp)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(m + 1):
            if i == 0 or j == 0:
                table[i][j] = i + j
            else:
                cost = 0 if ref[i - 1] == hyp[j - 1] else 1
                table[i][j] = min(
                    table[i - 1][j - 1] + cost,
                    table[i - 1][j] + 1,
                    table[i][j - 1] + 1,
                )
    subs = dels = ins = 0
    i, j = n, m
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
    """The whole file decoded, byte order mark dropped; not UTF-8 fails first.

    The loader decodes as it reads, so on a file longer than one read chunk
    (8 KiB) an error in an earlier row can win; generated files are shorter.
    """
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
                    kind = {list: "array", dict: "object"}.get(type(record.get(c)))
                    if kind and c != "repetition_index":
                        raise ManifestError(
                            f"{path}: row {lineno}: {c} must be a string or "
                            f"number, got a JSON {kind}"
                        )
                rows.append((lineno, record))
    else:
        with io.StringIO(text, newline="") as f:
            reader = csv.DictReader(f)
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
            for lineno, record in enumerate(reader, start=2):
                rows.append((lineno, record))
    return _oracle_build_manifest(rows, str(path))


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
