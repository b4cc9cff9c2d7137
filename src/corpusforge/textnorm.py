"""Text normalization shared by the lexicon, re-chaining and metrics code.

All orthographic keys in the package go through the same normalization so
that words match across input sources (lexicon, corpus lists, manifests,
sentences, eval pairs).
"""

from __future__ import annotations

import unicodedata

# Punctuation stripped before tokenization; configurable is a later concern.
PUNCTUATION = '.,!?;:"()'

_PUNCT_TABLE = str.maketrans("", "", PUNCTUATION)


def normalize_word(word: str) -> str:
    """Normalize a single orthographic word: NFC, trim, lowercase."""
    if not word.isascii():  # NFC leaves ASCII text as it is
        word = unicodedata.normalize("NFC", word)
    return word.strip().lower()


def normalize_text(text: str) -> str:
    """Normalize running text: NFC, lowercase, strip punctuation, collapse whitespace."""
    text = unicodedata.normalize("NFC", text).lower().translate(_PUNCT_TABLE)
    return " ".join(text.split())


def tokenize(text: str) -> list[str]:
    """Split normalized text into word tokens."""
    return normalize_text(text).split()
