"""Text normalization shared by the lexicon, re-chaining and metrics code.

All orthographic keys in the package go through the same normalization so
that words match across input sources (lexicon, corpus lists, manifests,
sentences, eval pairs).
"""

from __future__ import annotations

import unicodedata

# Punctuation stripped before tokenization; configurable is a later concern.
PUNCTUATION = '.,!?;:"()'


def normalize_word(word: str) -> str:
    """Normalize a single orthographic word: NFC, trim, lowercase."""
    if not word.isascii():  # NFC leaves ASCII text as it is
        word = unicodedata.normalize("NFC", word)
    return word.strip().lower()


def _clean(text: str) -> str:
    """NFC, lowercase, punctuation removed; whitespace is left as it is."""
    text = unicodedata.normalize("NFC", text).lower()
    for mark in PUNCTUATION:
        # One C-level scan per mark, and a copy only for a mark that occurs:
        # str.translate would look up every character in a table instead.
        if mark in text:
            text = text.replace(mark, "")
    return text


def normalize_text(text: str) -> str:
    """Normalize running text: NFC, lowercase, strip punctuation, collapse whitespace."""
    return " ".join(_clean(text).split())


def tokenize(text: str) -> list[str]:
    """Split normalized text into word tokens: ``normalize_text(text).split()``."""
    return _clean(text).split()
