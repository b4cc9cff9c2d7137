"""Sentence plans built from an inventory of recorded words.

A plan is an ordered list of (word, recording reference) pairs that a later
step renders into one sentence-level audio file. Plans come from three
sources: sentences written by a person, sentences fetched from a language
model, or random bootstrap draws over the recorded vocabulary. Sentences
are accepted only if every token has a recording; rejects are kept for
human review rather than silently dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CorpusForgeError, strict_int
from .jsonl import read_jsonl, write_jsonl
from .textnorm import tokenize

PROVENANCES = ("manual", "llm", "random")


class PlanError(CorpusForgeError):
    """Invalid plan input."""


class OovSentenceError(PlanError):
    """A sentence uses words without recordings; the sentence is rejected whole."""

    def __init__(self, sentence: str, missing: Sequence[str]):
        super().__init__(
            f"sentence has no recording for: {', '.join(missing)} ({sentence!r})"
        )
        self.sentence = sentence
        self.missing = list(missing)


@dataclass(frozen=True)
class WordInventory:
    """Recorded words mapped to their recording references, in manifest order.

    References are opaque strings (audio paths in this pipeline). Every word
    holds at least one reference.
    """

    items: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for word, refs in self.items.items():
            if not refs:
                raise PlanError(f"word {word!r} has no recording references")

    def __contains__(self, word: str) -> bool:
        return word in self.items

    def __len__(self) -> int:
        return len(self.items)

    @classmethod
    def from_manifest(cls, manifest) -> "WordInventory":
        """Group a recording manifest's audio paths by word, keeping file order."""
        columns = manifest.columns
        grouped: dict[str, list[str]] = {}
        for word, path in zip(columns["word"], columns["audio_path"]):
            grouped.setdefault(word, []).append(path)
        return cls({w: tuple(refs) for w, refs in grouped.items()})


@dataclass(frozen=True)
class SentencePlan:
    """Ordered (word, recording reference) pairs plus provenance metadata."""

    words: tuple[tuple[str, str], ...]
    provenance: str
    seed: int | None = None
    source_text: str | None = None

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise PlanError(f"unknown provenance {self.provenance!r}")
        if not self.words:
            raise PlanError("plan has no words")
        if (self.seed is None) == (self.provenance == "random"):
            raise PlanError("seed is required exactly for random plans")

    @property
    def text(self) -> str:
        return " ".join(w for w, _ in self.words)

    def to_dict(self) -> dict:
        return {
            "words": [{"word": w, "recording": r} for w, r in self.words],
            "provenance": self.provenance,
            "seed": self.seed,
            "source_text": self.source_text,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SentencePlan":
        try:
            words = tuple((d["word"], d["recording"]) for d in data["words"])
            seed, source_text = data.get("seed"), data.get("source_text")
            if not all(isinstance(s, str) for pair in words for s in pair):
                raise TypeError("word and recording must be strings")
            if not isinstance(source_text, (str, type(None))):
                raise TypeError(f"source_text must be a string, got {source_text!r}")
            try:
                seed = None if seed is None else strict_int(seed)
            except (TypeError, ValueError):
                raise TypeError(f"seed must be an integer, got {seed!r}") from None
            return cls(words, data["provenance"], seed, source_text)
        except (KeyError, TypeError) as exc:
            raise PlanError(f"malformed plan record: {exc}") from exc


def plan_from_sentence(
    sentence: str, inventory: WordInventory, provenance: str = "manual"
) -> SentencePlan:
    """Turn one sentence into a plan over the recorded inventory.

    Tokens are normalized (punctuation stripped, lowercased) and each must
    have a recording; otherwise the whole sentence is rejected with the
    full list of missing tokens. When a word has several recordings the
    first in manifest order is chosen.
    """
    if provenance not in ("manual", "llm"):
        raise PlanError(f"sentence plans must be manual or llm, got {provenance!r}")
    tokens = tokenize(sentence)
    if not tokens:
        raise PlanError(f"sentence has no word tokens: {sentence!r}")
    missing = [t for t in dict.fromkeys(tokens) if t not in inventory]
    if missing:
        raise OovSentenceError(sentence, missing)
    words = tuple((t, inventory.items[t][0]) for t in tokens)
    return SentencePlan(words=words, provenance=provenance, source_text=sentence)


def plan_random(inventory: WordInventory, m: int, seed: int) -> SentencePlan:
    """Plan of `m` i.i.d. uniform draws over the distinct recorded words.

    Draws are with replacement (bootstrap); the recording per draw is the
    first in manifest order. Output is fully determined by the inventory
    order, `m` and `seed`.
    """
    if not inventory.items:
        raise PlanError("inventory is empty")
    if m < 1:
        raise PlanError(f"plan length must be >= 1, got {m}")
    rng = random.Random(seed)
    vocab = list(inventory.items)
    words = tuple(
        (w, inventory.items[w][0])
        for w in (vocab[rng.randrange(len(vocab))] for _ in range(m))
    )
    return SentencePlan(words=words, provenance="random", seed=seed)


def batch_plans(
    sentences: Iterable[str], inventory: WordInventory, provenance: str = "manual"
) -> tuple[list[SentencePlan], list[tuple[str, list[str]]]]:
    """Plan many sentences, splitting them into accepted and rejected.

    Rejected entries pair the sentence with its missing tokens and are meant
    for human review; a single bad sentence never aborts the batch.
    """
    accepted: list[SentencePlan] = []
    rejected: list[tuple[str, list[str]]] = []
    for sentence in sentences:
        try:
            accepted.append(plan_from_sentence(sentence, inventory, provenance))
        except OovSentenceError as exc:
            rejected.append((sentence, exc.missing))
        except PlanError:
            rejected.append((sentence, []))
    return accepted, rejected


def write_plans(plans: Iterable[SentencePlan], path: str | Path) -> None:
    """Write plans as JSONL, one object per line."""
    write_jsonl(path, (plan.to_dict() for plan in plans))


def read_plans(path: str | Path) -> list[SentencePlan]:
    plans = []
    for lineno, data in read_jsonl(path, PlanError):
        try:
            plans.append(SentencePlan.from_dict(data))
        except PlanError as exc:
            raise PlanError(f"{path}: row {lineno}: {exc}") from None
    return plans
