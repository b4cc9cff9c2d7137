"""Word and character error rates with full edit decompositions.

Rates are minimal Levenshtein edit counts (unit costs) divided by the
reference length. Corpus-level rates pool the raw counts over all pairs
instead of averaging per-pair rates, so short utterances do not dominate.
One bit-parallel kernel in pure Python computes every decomposition,
whatever the lengths.
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

    Several alignments can reach the minimum; the walk back from the corner
    of the edit-distance table prefers substitution over deletion over
    insertion, so the decomposition is reproducible. The total is the
    plain Levenshtein distance either way.

    The table has one row per reference token and one column per
    hypothesis token (the transposed table would turn the tie-break into
    substitution over insertion over deletion). It is never built: the
    walk reads each step's choice from the column deltas of
    :func:`_delta_columns`.
    """
    columns = _delta_columns(reference, hypothesis)
    subs = dels = ins = 0
    i, j = len(reference), len(hypothesis)
    while i and j:
        vp, vn, hp, hn = columns[j]
        bit = 1 << (i - 1)
        # dist[i][j] - dist[i-1][j] and dist[i-1][j] - dist[i-1][j-1].
        vert = (vp & bit > 0) - (vn & bit > 0)
        horiz = (hp & bit > 0) - (hn & bit > 0)
        cost = reference[i - 1] != hypothesis[j - 1]
        if vert + horiz == cost:
            subs += cost
            i -= 1
            j -= 1
        elif vert == 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return subs, dels + i, ins + j


def _delta_columns(
    reference: Sequence[str], hypothesis: Sequence[str]
) -> list[tuple[int, int, int, int]]:
    """Every delta of the Levenshtein table, one column per hypothesis token.

    The bit-vector DP of Myers (1999) in the global edit-distance form of
    Hyyrö (2001): the reference lies along the bits of Python ints, and
    each hypothesis token is one step of a dozen int operations on them.
    Column ``j`` holds ``(vp, vn, hp, hn)``: bit ``r`` of
    ``vp``/``vn`` is set when ``dist[r+1][j] - dist[r][j]`` is +1/-1, and
    bit ``r`` of ``hp``/``hn`` when ``dist[r][j] - dist[r][j-1]`` is +1/-1.
    Column 0 is ``dist[i][0] = i``; its horizontal vectors are unused.
    """
    mask = (1 << len(reference)) - 1
    match: dict[str, int] = {}
    for i, token in enumerate(reference):
        match[token] = match.get(token, 0) | 1 << i
    vp, vn = mask, 0
    columns = [(vp, vn, 0, 0)]
    for token in hypothesis:
        eq = match.get(token, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        # Horizontal deltas of rows 1..n, shifted onto their bits under
        # row 0's constant +1.
        hp = (vn | ~(xh | vp) & mask) << 1 | 1
        hn = (vp & xh) << 1
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
        columns.append((vp, vn, hp, hn))
    return columns


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
