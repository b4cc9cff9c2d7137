"""Word selection for recording scripts.

Two greedy selectors work over a candidate pool of phonemized words:

* :func:`gbc_select` (greedy biphone coverage) picks words that maximize
  the number of distinct biphones not yet covered, under a word budget.
* :func:`pwps_select` (personalized weighted phoneme selection) then picks
  additional words scored by clinically weighted target phonemes with
  Laplace-smoothed diminishing returns, so that a phoneme already well
  represented in the picked set contributes less and less.

Both are deterministic: candidate pools hold a canonical (lexicographic)
order and ties always resolve to the first candidate in that order.

Both run as lazy greedy loops (Minoux 1978, "Accelerated greedy algorithms
for maximizing submodular set functions"): one heap holds every eligible
candidate keyed by ``(-gain, pool_index)`` with a gain computed at some
earlier step. The top entry is rescored and taken if its fresh key still
sorts first, otherwise pushed back. This is exact, not an approximation,
because a stored gain never understates the current one: a gbc gain only
shrinks as coverage grows, and each pwps term ``alpha / (count + 1)`` only
shrinks as counts grow while rounded division and a float sum in a fixed
order are monotone. A fresh key that sorts before every stored key
therefore sorts before every fresh key, so the picks, their order and the
tie-breaks equal those of rescanning every candidate at every step.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .errors import CorpusForgeError
from .jsonl import read_json_object
from .lexicon import BiphoneSet, Lexicon, OovWordError, Phoneme, PhonemeSequence
from .lexicon import biphones as _biphones
from .lexicon import phonemize
from .textnorm import normalize_word


class SelectionError(CorpusForgeError):
    """Invalid selection input (empty pool, bad budget, bad weights...)."""


@dataclass(frozen=True)
class CandidateWord:
    word: str
    phonemes: PhonemeSequence
    biphones: BiphoneSet


@dataclass(frozen=True)
class CandidatePool:
    """Candidate words in canonical (lexicographic) order, no duplicates."""

    words: tuple[CandidateWord, ...]

    def __post_init__(self):
        for a, b in zip(self.words, self.words[1:]):
            if a.word == b.word:
                raise SelectionError(f"duplicate candidate word: {a.word!r}")
            if a.word > b.word:
                raise SelectionError("candidate pool is not in canonical order")

    def __len__(self) -> int:
        return len(self.words)

    @classmethod
    def build(cls, items: Sequence[tuple[str, PhonemeSequence]]) -> "CandidatePool":
        """Build a pool from (word, phoneme sequence) pairs, sorting them."""
        cands = [
            CandidateWord(word, tuple(seq), _biphones(tuple(seq)))
            for word, seq in items
        ]
        cands.sort(key=lambda c: c.word)
        return cls(tuple(cands))


def pool_from_lexicon(
    words: Sequence[str], lexicon: Lexicon
) -> tuple[CandidatePool, list[str]]:
    """Phonemize `words` against `lexicon`, skipping out-of-vocabulary ones.

    Returns the pool plus the list of skipped (normalized) words. Duplicate
    input words collapse to one candidate.
    """
    items: dict[str, PhonemeSequence] = {}
    skipped: list[str] = []
    for word in words:
        try:
            seq = phonemize(word, lexicon)
        except OovWordError as exc:
            skipped.append(exc.word)
            continue
        items.setdefault(normalize_word(word), seq)
    return CandidatePool.build(list(items.items())), skipped


@dataclass(frozen=True)
class PhonemeWeights:
    """Positive weights for the target phoneme set.

    Weights typically come from a therapy assessment of which phonemes
    matter most for the speaker; how they are derived is outside this tool.
    """

    weights: Mapping[Phoneme, float]

    def __post_init__(self):
        if not self.weights:
            raise SelectionError("target phoneme set is empty")
        for p, alpha in self.weights.items():
            # NaN (which fails both comparisons) would leave the selection heap
            # without a consistent order; infinity would end diminishing returns.
            if not p or not 0 < alpha < math.inf:
                raise SelectionError(
                    f"weight for {p!r} must be finite and > 0, got {alpha}"
                )

    @classmethod
    def from_json(cls, path: str | Path) -> "PhonemeWeights":
        data = read_json_object(path, SelectionError)
        try:
            return cls({str(k): float(v) for k, v in data.items()})
        except (TypeError, ValueError) as exc:
            raise SelectionError(f"{path}: weights must be numbers: {exc}") from None


@dataclass(frozen=True)
class SelectionState:
    """Result of one selection stage.

    `covered_biphones` and `phoneme_counts` are derived bookkeeping: both
    can be rebuilt from `selected` alone (and tests do exactly that).
    Phoneme counts are token counts, i.e. occurrences with multiplicity.
    """

    selected: tuple[CandidateWord, ...]
    covered_biphones: BiphoneSet
    phoneme_counts: dict[Phoneme, int]

    @property
    def selected_words(self) -> list[str]:
        return [c.word for c in self.selected]


def _state(selected: list[CandidateWord]) -> SelectionState:
    covered = frozenset().union(*(c.biphones for c in selected))
    counts: Counter = Counter()
    for cand in selected:
        counts.update(cand.phonemes)
    return SelectionState(tuple(selected), covered, dict(counts))


def gbc_select(pool: CandidatePool, k: int) -> SelectionState:
    """Greedy biphone-coverage selection of up to `k` words.

    Each step picks the candidate introducing the most biphones not yet
    covered (ties: first in canonical order) and stops early as soon as no
    remaining candidate introduces any new biphone. Single-phoneme words
    have no biphones and are therefore never picked.

    Lazy greedy: a candidate is rescored only when it reaches the top of
    the heap, and dropped once its gain is 0, which it then stays, since
    gains only shrink as coverage grows.
    """
    if not pool.words:
        raise SelectionError("candidate pool is empty")
    if k < 1:
        raise SelectionError(f"budget k must be >= 1, got {k}")
    words = pool.words
    heap = [(-len(c.biphones), i) for i, c in enumerate(words) if c.biphones]
    heapq.heapify(heap)
    covered: set = set()
    selected: list[CandidateWord] = []
    while heap and len(selected) < k:
        _, i = heapq.heappop(heap)
        gain = len(words[i].biphones - covered)
        if not gain:
            continue
        key = (-gain, i)
        if heap and key > heap[0]:
            heapq.heappush(heap, key)
            continue
        selected.append(words[i])
        covered |= words[i].biphones
    return _state(selected)


def pwps_score(
    cand: CandidateWord,
    weights: PhonemeWeights,
    counts: Mapping[Phoneme, int],
) -> float:
    """Score of one candidate given occurrence counts of already-picked words.

    Each distinct phoneme of the word that is in the target set contributes
    its weight divided by (count + 1), where the count is the number of
    phoneme tokens seen so far in this stage's selection. Terms are summed
    in sorted phoneme order so the result is reproducible bit for bit.
    """
    total = 0.0
    for p in sorted(set(cand.phonemes)):
        alpha = weights.weights.get(p)
        if alpha is not None:
            total += alpha / (counts.get(p, 0) + 1)
    return total


def pwps_select(
    pool: CandidatePool,
    k_prime: int,
    weights: PhonemeWeights,
    prior: SelectionState | None = None,
) -> SelectionState:
    """Weighted-phoneme selection of up to `k_prime` additional words.

    `pool` must be disjoint from `prior.selected` (the first-stage picks);
    pass the remainder pool. Occurrence counts start at zero for this
    stage: first-stage words do not pre-load the diminishing returns.
    Words whose target-phoneme score is zero become eligible only once all
    positive-score words are exhausted, in canonical order. If `k_prime`
    exceeds the pool, the whole pool is selected.

    Lazy greedy: a candidate is rescored only when it reaches the top of
    the heap. Zero-score words stay in the heap, so once only they remain
    the `pool_index` tie-break takes them in canonical order.
    """
    if k_prime < 1:
        raise SelectionError(f"budget k' must be >= 1, got {k_prime}")
    if prior is not None:
        overlap = {c.word for c in prior.selected} & {c.word for c in pool.words}
        if overlap:
            raise SelectionError(
                f"pool overlaps prior selection: {sorted(overlap)}"
            )
    words = pool.words
    counts: Counter = Counter()
    # Scores go through the module-level pwps_score, so callers that count
    # its calls measure the rescoring work.
    heap = [(-pwps_score(c, weights, counts), i) for i, c in enumerate(words)]
    heapq.heapify(heap)
    selected: list[CandidateWord] = []
    while heap and len(selected) < k_prime:
        _, i = heapq.heappop(heap)
        key = (-pwps_score(words[i], weights, counts), i)
        if heap and key > heap[0]:
            heapq.heappush(heap, key)
            continue
        selected.append(words[i])
        counts.update(words[i].phonemes)
    return _state(selected)


@dataclass(frozen=True)
class CoverageReport:
    """Coverage statistics of a selection, serializable as JSON."""

    word_count: int
    distinct_biphones: int
    phoneme_histogram: dict[Phoneme, int]
    per_step_gain: list[int] = field(default_factory=list)


def coverage_report(state: SelectionState) -> CoverageReport:
    """Recompute coverage statistics from the ordered selection.

    Per-step gains replay the selection from an empty covered set, so for
    a greedy-coverage selection they are all >= 1 and sum to the distinct
    biphone total.
    """
    covered: set = set()
    gains: list[int] = []
    hist: Counter = Counter()
    for cand in state.selected:
        gains.append(len(cand.biphones - covered))
        covered |= cand.biphones
        hist.update(cand.phonemes)
    return CoverageReport(
        word_count=len(state.selected),
        distinct_biphones=len(covered),
        phoneme_histogram=dict(hist),
        per_step_gain=gains,
    )


def replay_selection(pool: CandidatePool, words: Sequence[str]) -> SelectionState:
    """Build a SelectionState for an explicit ordered word list.

    Used to report coverage over word lists produced earlier (or anywhere
    else); every word must exist in the pool and appear once.
    """
    by_word = {c.word: c for c in pool.words}
    selected: list[CandidateWord] = []
    seen: set[str] = set()
    for word in words:
        if word in seen:
            raise SelectionError(f"word listed twice: {word!r}")
        if word not in by_word:
            raise SelectionError(f"word not in pool: {word!r}")
        seen.add(word)
        selected.append(by_word[word])
    return _state(selected)
