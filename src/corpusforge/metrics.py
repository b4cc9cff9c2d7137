"""Word and character error rates with full edit decompositions.

Rates are minimal Levenshtein edit counts (unit costs) divided by the
reference length. Corpus-level rates pool the raw counts over all pairs
instead of averaging per-pair rates, so short utterances do not dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .errors import CorpusForgeError
from .textnorm import normalize_text

Mode = Literal["word", "char"]


class EmptyReferenceError(CorpusForgeError):
    """Reference is empty after normalization; the rate would divide by zero."""


@dataclass(frozen=True)
class EvalPair:
    reference: str
    hypothesis: str


@dataclass(frozen=True)
class EditSummary:
    """Levenshtein decomposition of one comparison (or a pooled corpus)."""

    substitutions: int
    deletions: int
    insertions: int
    reference_length: int

    @property
    def total_edits(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def rate(self) -> float:
        return self.total_edits / self.reference_length

    def to_dict(self) -> dict:
        return {
            "substitutions": self.substitutions,
            "deletions": self.deletions,
            "insertions": self.insertions,
            "reference_length": self.reference_length,
            "total_edits": self.total_edits,
            "rate": self.rate,
        }


def normalize(text: str, mode: Mode) -> list[str]:
    """Token sequence used for comparison.

    Lowercases, strips punctuation and collapses whitespace; word mode
    yields whitespace tokens, char mode yields the characters of the
    normalized string with single spaces preserved.
    """
    cleaned = normalize_text(text)
    if mode == "word":
        return cleaned.split()
    if mode == "char":
        return list(cleaned)
    raise ValueError(f"mode must be 'word' or 'char', got {mode!r}")


def edit_counts(
    reference: Sequence[str], hypothesis: Sequence[str]
) -> tuple[int, int, int]:
    """(substitutions, deletions, insertions) of a minimal edit alignment.

    Dynamic programming over token sequences. Several alignments can reach
    the minimum; the backtrace prefers substitution over deletion over
    insertion so the decomposition is reproducible. The total is the plain
    Levenshtein distance either way.
    """
    n, m = len(reference), len(hypothesis)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][0] = i
    for j in range(m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        ref_tok = reference[i - 1]
        row = dist[i]
        prev = dist[i - 1]
        for j in range(1, m + 1):
            cost = 0 if ref_tok == hypothesis[j - 1] else 1
            row[j] = min(prev[j - 1] + cost, prev[j] + 1, row[j - 1] + 1)

    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = 0 if reference[i - 1] == hypothesis[j - 1] else 1
            if dist[i][j] == dist[i - 1][j - 1] + cost:
                subs += cost
                i -= 1
                j -= 1
                continue
        if i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            dels += 1
            i -= 1
            continue
        ins += 1
        j -= 1
    return subs, dels, ins


def edit_rate(pair: EvalPair, mode: Mode) -> EditSummary:
    """Error rate of one reference/hypothesis pair.

    Raises :class:`EmptyReferenceError` when the normalized reference has
    no tokens; that is a data fault, not a 100% error rate.
    """
    ref = normalize(pair.reference, mode)
    hyp = normalize(pair.hypothesis, mode)
    if not ref:
        raise EmptyReferenceError(
            f"reference is empty after normalization: {pair.reference!r}"
        )
    subs, dels, ins = edit_counts(ref, hyp)
    return EditSummary(
        substitutions=subs,
        deletions=dels,
        insertions=ins,
        reference_length=len(ref),
    )


def pool_summaries(summaries: Sequence[EditSummary]) -> EditSummary:
    """Pooled summary: edit counts and reference lengths summed over pairs."""
    if not summaries:
        raise EmptyReferenceError("no pairs to evaluate")
    return EditSummary(
        substitutions=sum(s.substitutions for s in summaries),
        deletions=sum(s.deletions for s in summaries),
        insertions=sum(s.insertions for s in summaries),
        reference_length=sum(s.reference_length for s in summaries),
    )


def corpus_rate(pairs: Sequence[EvalPair], mode: Mode) -> EditSummary:
    """Pooled rate over a corpus: sum of edits over sum of reference lengths."""
    summaries = []
    for index, pair in enumerate(pairs):
        try:
            summaries.append(edit_rate(pair, mode))
        except EmptyReferenceError:
            raise EmptyReferenceError(
                f"pair {index} has an empty reference: {pair.reference!r}"
            ) from None
    return pool_summaries(summaries)
