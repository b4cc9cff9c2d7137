"""Word and character error rates with full edit decompositions.

Rates are minimal Levenshtein edit counts (unit costs) divided by the
reference length. Corpus-level rates pool the raw counts over all pairs
instead of averaging per-pair rates, so short utterances do not dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Sequence

from .errors import CorpusForgeError
from .textnorm import normalize_text

if TYPE_CHECKING:
    import numpy as np

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


# Row width (hypothesis length) from which the numpy table builder beats
# the pure-Python one; the crossover measured on a 2-vCPU x86 VM lies
# between 24 and 32 tokens.
_NUMPY_MIN_WIDTH = 32


def edit_counts(
    reference: Sequence[str], hypothesis: Sequence[str]
) -> tuple[int, int, int]:
    """(substitutions, deletions, insertions) of a minimal edit alignment.

    Dynamic programming over token sequences. Several alignments can reach
    the minimum; the backtrace prefers substitution over deletion over
    insertion so the decomposition is reproducible. The total is the plain
    Levenshtein distance either way.

    The table has one row per reference token and one column per
    hypothesis token (the transposed table would turn the tie-break into
    substitution over insertion over deletion). Rows of at least
    ``_NUMPY_MIN_WIDTH`` columns are filled with numpy, shorter ones in pure
    Python; both builders produce the same table and share one backtrace,
    so the result never depends on which one ran.
    """
    if len(hypothesis) >= _NUMPY_MIN_WIDTH:
        dist = _table_np(reference, hypothesis)
    else:
        dist = _table_py(reference, hypothesis)
    return _backtrace(dist, reference, hypothesis)


def _table_py(
    reference: Sequence[str], hypothesis: Sequence[str]
) -> list[list[int]]:
    """Full Levenshtein table as lists, one row per reference token."""
    prev = list(range(len(hypothesis) + 1))
    dist = [prev]
    for i, ref_tok in enumerate(reference, start=1):
        row = [i]
        left = i
        for hyp_tok, diag, up in zip(hypothesis, prev, prev[1:]):
            # left becomes min(diag + cost, up + 1, left + 1).
            if ref_tok != hyp_tok:
                diag += 1
            if up < left:
                left = up
            left += 1
            if diag < left:
                left = diag
            row.append(left)
        dist.append(row)
        prev = row
    return dist


def _table_np(reference: Sequence[str], hypothesis: Sequence[str]) -> np.ndarray:
    """Full Levenshtein table as an int32 array, filled one row at a time.

    The rows are stored offset by ``i + j`` until the end: with
    ``f[i][j] = dist[i][j] - i - j`` the substitution candidate is
    ``f[i-1][j-1] + cost - 2``, the deletion candidate ``f[i-1][j]`` and the
    insertion candidate ``f[i][j-1]``. So each row is two elementwise
    ufuncs followed by a running minimum, which resolves the whole
    insertion chain at once. The first row and column of ``f`` are 0, that
    is ``dist[i][0] = i`` and ``dist[0][j] = j``.
    """
    import numpy as np  # here, so a run without long rows starts without it

    n, m = len(reference), len(hypothesis)
    ids: dict = {}
    ref_ids = np.array([ids.setdefault(t, len(ids)) for t in reference], np.int32)
    hyp_ids = np.array([ids.setdefault(t, len(ids)) for t in hypothesis], np.int32)
    sub = (ref_ids[:, None] != hyp_ids).astype(np.int32) - 2
    f = np.zeros((n + 1, m + 1), dtype=np.int32)
    for diag, up, tail, sub_row, row in zip(
        f[:-1, :-1], f[:-1, 1:], f[1:, 1:], sub, f[1:]
    ):
        np.add(diag, sub_row, out=tail)
        np.minimum(tail, up, out=tail)
        np.minimum.accumulate(row, out=row)
    f += np.arange(n + 1, dtype=np.int32)[:, None]
    f += np.arange(m + 1, dtype=np.int32)
    return f


def _backtrace(
    dist, reference: Sequence[str], hypothesis: Sequence[str]
) -> tuple[int, int, int]:
    """Walk a full table back from the corner, preferring S > D > I."""
    n, m = len(reference), len(hypothesis)
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
