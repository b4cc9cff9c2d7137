"""Pronunciation lexicon parsing and biphone extraction.

A lexicon maps orthographic words to phoneme sequences. The file format is
a CMU-dict-like TSV, one entry per line::

    word<TAB>phoneme phoneme ...

Lines starting with ``#`` are comments; blank lines are skipped. Phoneme
symbols are taken verbatim (IPA or whatever the lexicon uses), one token
per symbol. Each word has exactly one pronunciation; duplicate entries are
rejected so that downstream selection scores stay unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import CorpusForgeError
from .textnorm import normalize_word

# A phoneme is a non-empty symbol string without whitespace; a biphone is an
# ordered pair of consecutive phonemes within one word.
Phoneme = str
PhonemeSequence = tuple[Phoneme, ...]
Biphone = tuple[Phoneme, Phoneme]
BiphoneSet = frozenset[Biphone]


class LexiconError(CorpusForgeError):
    """Malformed lexicon input."""


class OovWordError(CorpusForgeError):
    """A word is missing from the lexicon. Carries the normalized form."""

    def __init__(self, word: str):
        super().__init__(f"word not in lexicon: {word!r}")
        self.word = word


@dataclass(frozen=True)
class Lexicon:
    """Mapping from normalized orthography to its phoneme sequence.

    Treat as read-only after construction; all operations on it are pure.
    """

    entries: dict[str, PhonemeSequence]

    def __contains__(self, word: str) -> bool:
        return normalize_word(word) in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def parse_lexicon(source: Iterable[str]) -> Lexicon:
    """Parse lexicon TSV lines into a :class:`Lexicon`.

    `source` is any iterable of text lines (an open file works). Raises
    :class:`LexiconError` on structural problems, naming the offending
    line number(s).
    """
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
        word = normalize_word(word_field)
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


def load_lexicon(path: str | Path) -> Lexicon:
    with open(path, encoding="utf-8") as f:
        return parse_lexicon(f)


def serialize_lexicon(lexicon: Lexicon) -> str:
    """Render a lexicon back to TSV text (sorted by word, round-trips).

    An entry that :func:`parse_lexicon` would read back differently raises
    :class:`LexiconError`: a word not in :func:`normalize_word` form, holding
    a tab or line break or starting with ``#``, or a phoneme that is empty
    or holds whitespace.
    """
    lines = []
    for word, phonemes in sorted(lexicon.entries.items()):
        if (
            not word or word != normalize_word(word) or word.startswith("#")
            or any(c in word for c in "\t\r\n")
            or not phonemes or any(p.split() != [p] for p in phonemes)
        ):
            raise LexiconError(f"entry {word!r} {phonemes!r} cannot be written as TSV")
        lines.append(f"{word}\t{' '.join(phonemes)}")
    return "\n".join(lines) + ("\n" if lines else "")


def phonemize(word: str, lexicon: Lexicon) -> PhonemeSequence:
    """Look up the phoneme sequence for `word` (case-insensitive).

    Raises :class:`OovWordError` when the normalized word is absent; the
    caller decides whether to skip or abort.
    """
    normalized = normalize_word(word)
    try:
        return lexicon.entries[normalized]
    except KeyError:
        raise OovWordError(normalized) from None


def biphones(seq: PhonemeSequence) -> BiphoneSet:
    """Set of ordered consecutive phoneme pairs of `seq`.

    Word-internal only; a single-phoneme sequence yields the empty set.
    """
    return frozenset(zip(seq, seq[1:]))
