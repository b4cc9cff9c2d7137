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

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

from .errors import CorpusForgeError, open_text
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


class _Pronunciations(Mapping[str, PhonemeSequence]):
    """Read-only word -> phoneme sequence view over pronunciation strings.

    A pronunciation is split into its phonemes only when its word is looked
    up; membership, iteration and length go straight to the strings.
    """

    __slots__ = ("_raw",)

    def __init__(self, raw: dict[str, str]):
        self._raw = raw

    def __getitem__(self, word: str) -> PhonemeSequence:
        return tuple(self._raw[word].split())

    def __contains__(self, word: object) -> bool:
        return word in self._raw

    def __iter__(self) -> Iterator[str]:
        return iter(self._raw)

    def __len__(self) -> int:
        return len(self._raw)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class Lexicon:
    """Read-only mapping from normalized orthography to its phoneme sequence.

    All operations on it are pure. A parsed lexicon splits a pronunciation
    into phonemes only when its word is looked up.
    """

    entries: Mapping[str, PhonemeSequence]

    def __contains__(self, word: str) -> bool:
        return normalize_word(word) in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def parse_lexicon(source: Iterable[str]) -> Lexicon:
    """Parse lexicon TSV lines into a :class:`Lexicon`.

    `source` is any iterable of text lines (an open file works). Every line
    is checked; :class:`LexiconError` names the first offending line
    number(s). Pronunciations are kept as text until looked up.
    """
    raw: dict[str, str] = {}
    linenos: list[int] = []  # the line of each entry of `raw`, in order
    for lineno, line in enumerate(source, start=1):
        word_field, sep, pron = line.partition("\t")
        # Common case first: a line starting with a letter or digit is
        # neither blank, nor a comment, nor missing its word.
        if not (sep and line[:1].isalnum()):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            word_field, sep, pron = line.partition("\t")
            if not sep or not word_field.strip():
                raise LexiconError(
                    f"line {lineno}: expected 'word<TAB>phoneme ...', got {line!r}"
                )
        word = normalize_word(word_field)
        if not pron or pron.isspace():
            raise LexiconError(f"line {lineno}: empty pronunciation for {word!r}")
        if word in raw:
            first = linenos[list(raw).index(word)]
            raise LexiconError(
                f"duplicate entry for {word!r} (lines {first} and {lineno})"
            )
        raw[word] = pron
        linenos.append(lineno)
    return Lexicon(_Pronunciations(raw))


def load_lexicon(path: str | Path) -> Lexicon:
    with open_text(path, LexiconError) as f:
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
