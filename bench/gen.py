"""Seeded synthetic inputs for the corpusforge pipeline benchmark.

Every input is a pure function of (workload sizes, seed): the same seed
writes the same bytes, so a run can be repeated and two commits can be fed
identical data. Nothing is downloaded.

* Lexicon: words over 40 ARPAbet-style phonemes, drawn from a first-order
  Markov chain whose start and transition distributions are Zipf-weighted
  over seeded permutations, with lengths 2-10. Uniform draws would let
  greedy coverage take all 1,600 biphones in about 256 picks and stop long
  before k=400; the skew keeps rare biphones rare, as in real lexicons.
* Recordings: one integer triangle-tone WAV per recorded word (pure integer
  arithmetic, so the bytes do not depend on the CPU's float kernels), and a
  CSV manifest over speakers x sessions x blocks x microphones x repetitions.
* Manual sentences over the recorded words with a set share of OOV tokens.
* Eval pairs whose hypotheses apply word substitutions, deletions and
  insertions at set rates. Pair lengths are a fixed multiset shuffled by the
  seed, so the amount of DP work barely moves between seeds.

Usage: python3 bench/gen.py --workload render-manifest --seed 1 --cache DIR
"""

from __future__ import annotations

import argparse
import bisect
import csv
import json
import os
import random
import shutil
import struct
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

PHONEMES = (
    "AA AE AH AO AW AX AY B CH D DH EH ER EY F G HH IH IY JH "
    "K L M N NG OW OY P R S SH T TH UH UW V W Y Z ZH"
).split()
LENGTH_WEIGHTS = {2: 5, 3: 12, 4: 18, 5: 18, 6: 15, 7: 12, 8: 9, 9: 6, 10: 5}
ZIPF_EXPONENT = 1.1
SAMPLE_RATE = 16000


@dataclass(frozen=True)
class Sizes:
    """Input sizes and CLI settings of one workload."""

    lexicon_words: int
    candidates: int
    candidate_oov: int  # corpus words absent from the lexicon
    k: int
    k_prime: int
    target_phonemes: int
    recorded_words: int
    speakers: int
    sessions: int
    blocks: int
    words_per_block: int
    microphones: int
    repetitions: int
    clip_ms: tuple[int, int]  # shortest and longest recorded word
    random_plans: int
    sentences: int
    sentence_oov_rate: float
    gap_ms: int
    fade_ms: int
    eval_pairs: int
    eval_modes: tuple[str, ...]
    ref_words: tuple[int, int] | None  # reference length in words, or
    ref_chars: tuple[int, int] | None  # ... in characters
    sub_rate: float = 0.08
    del_rate: float = 0.04
    ins_rate: float = 0.03


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# render-manifest keeps plans few and recorded words fewer (about 18 reads per
# clip) and words word-length (0.3-0.8 s): every output WAV is a file creation,
# whose cost on a virtual disk drifts with file churn and would otherwise swamp
# the decode and concat work.
WORKLOADS: dict[str, Sizes] = {
    "select-cmu": Sizes(
        lexicon_words=134_000, candidates=2_500, candidate_oov=50, k=400,
        k_prime=100, target_phonemes=6,
        recorded_words=60, speakers=2, sessions=1, blocks=3, words_per_block=40,
        microphones=2, repetitions=1, clip_ms=(150, 300),
        random_plans=60, sentences=60, sentence_oov_rate=0.1,
        gap_ms=100, fade_ms=5,
        eval_pairs=200, eval_modes=("wer",), ref_words=(3, 15), ref_chars=None,
    ),
    "render-manifest": Sizes(
        lexicon_words=5_000, candidates=400, candidate_oov=10, k=40,
        k_prime=10, target_phonemes=6,
        recorded_words=120, speakers=4, sessions=3, blocks=4, words_per_block=50,
        microphones=3, repetitions=2, clip_ms=(300, 800),
        random_plans=400, sentences=600, sentence_oov_rate=0.1,
        gap_ms=50, fade_ms=5,
        eval_pairs=2_500, eval_modes=("wer",), ref_words=(3, 15), ref_chars=None,
    ),
    "eval-long": Sizes(
        lexicon_words=5_000, candidates=400, candidate_oov=10, k=40,
        k_prime=10, target_phonemes=6,
        recorded_words=60, speakers=2, sessions=1, blocks=3, words_per_block=40,
        microphones=2, repetitions=1, clip_ms=(150, 300),
        random_plans=100, sentences=60, sentence_oov_rate=0.1,
        gap_ms=150, fade_ms=0,
        eval_pairs=70, eval_modes=("cer", "wer"), ref_words=None,
        ref_chars=(100, 300),
    ),
}


def _zipf_cum(n: int) -> list[float]:
    cum, total = [], 0.0
    for rank in range(1, n + 1):
        total += rank ** -ZIPF_EXPONENT
        cum.append(total)
    return cum


class _PhonemeChain:
    """Zipf-weighted first-order Markov chain over PHONEMES."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.cum = _zipf_cum(len(PHONEMES))
        self.start = rng.sample(PHONEMES, len(PHONEMES))
        self.next = {p: rng.sample(PHONEMES, len(PHONEMES)) for p in PHONEMES}
        self.lengths = list(LENGTH_WEIGHTS)
        self.length_cum = []
        total = 0
        for n in self.lengths:
            total += LENGTH_WEIGHTS[n]
            self.length_cum.append(total)

    def _draw(self, order: list[str]) -> str:
        u = self.rng.random() * self.cum[-1]
        return order[bisect.bisect_right(self.cum, u)]

    def word(self) -> tuple[str, ...]:
        u = self.rng.random() * self.length_cum[-1]
        n = self.lengths[bisect.bisect_right(self.length_cum, u)]
        seq = [self._draw(self.start)]
        while len(seq) < n:
            seq.append(self._draw(self.next[seq[-1]]))
        return tuple(seq)


def _letters(n: int) -> str:
    out = ""
    while True:
        out += chr(ord("a") + n % 26)
        n //= 26
        if not n:
            return out


def _lexicon(rng: random.Random, count: int) -> list[tuple[str, tuple[str, ...]]]:
    """`count` entries with unique all-letter spellings, in draw order."""
    chain = _PhonemeChain(rng)
    entries, seen = [], set()
    while len(entries) < count:
        seq = chain.word()
        base = "".join(p.lower() for p in seq)
        word, n = base, 0
        while word in seen:
            word = base + "q" + _letters(n)
            n += 1
        seen.add(word)
        entries.append((word, seq))
    return entries


def _tone(freq: int, n: int) -> bytes:
    """Integer triangle wave of `n` samples, amplitude 9,000."""
    period = max(SAMPLE_RATE // freq, 4)
    half = period // 2
    out = []
    for i in range(n):
        phase = i % period
        level = phase if phase < half else period - phase
        out.append((level * 36_000) // period - 9_000)
    return struct.pack(f"<{n}h", *out)


def _write_wav(path: Path, pcm: bytes) -> None:
    rate = SAMPLE_RATE
    header = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(pcm))
    path.write_bytes(header + pcm)


def _spread(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """`n` values evenly spaced over [lo, hi], in seeded order."""
    values = [lo + (hi - lo) * i // max(n - 1, 1) for i in range(n)]
    rng.shuffle(values)
    return values


def _edit(rng: random.Random, ref: list[str], vocab: list[str], s: Sizes) -> list[str]:
    hyp = []
    for tok in ref:
        u = rng.random()
        if u < s.del_rate:
            pass
        elif u < s.del_rate + s.sub_rate:
            hyp.append(rng.choice(vocab))
        else:
            hyp.append(tok)
        if rng.random() < s.ins_rate:
            hyp.append(rng.choice(vocab))
    return hyp


def _reference(rng: random.Random, vocab: list[str], target: int, s: Sizes) -> list[str]:
    if s.ref_words is not None:
        return [rng.choice(vocab) for _ in range(target)]
    words, length = [], -1
    while length < target:
        words.append(rng.choice(vocab))
        length += len(words[-1]) + 1
    return words


def generate(sizes: Sizes, seed: int, out: Path) -> dict:
    """Write every input file of one workload under `out`; return its metadata."""
    rng = random.Random(f"corpusforge-bench:{seed}")
    out.mkdir(parents=True, exist_ok=True)

    lexicon = _lexicon(rng, sizes.lexicon_words)
    with open(out / "lexicon.tsv", "w", encoding="utf-8", newline="\n") as f:
        for word, seq in lexicon:
            f.write(f"{word}\t{' '.join(seq)}\n")
    words = [w for w, _ in lexicon]
    corpus = rng.sample(words, sizes.candidates)
    # Lexicon spellings never start with "q", so these are always OOV.
    corpus += [f"q{_letters(i)}" for i in range(sizes.candidate_oov)]
    rng.shuffle(corpus)
    (out / "corpus.txt").write_text("".join(w + "\n" for w in corpus), encoding="utf-8")
    targets = rng.sample(PHONEMES, sizes.target_phonemes)
    weights = {p: round(rng.uniform(1.0, 3.0), 2) for p in sorted(targets)}
    (out / "weights.json").write_text(json.dumps(weights, sort_keys=True) + "\n")

    recorded = rng.sample(words, sizes.recorded_words)
    audio = out / "audio"
    audio.mkdir(exist_ok=True)
    clip_samples = {}
    lengths = _spread(rng, *sizes.clip_ms, len(recorded))
    for word, ms in zip(recorded, lengths):
        n = ms * SAMPLE_RATE // 1000
        _write_wav(audio / f"{word}.wav", _tone(rng.randrange(150, 900), n))
        clip_samples[f"{word}.wav"] = n
    with open(out / "manifest.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(
            ["speaker_id", "session_id", "block_id", "microphone_id", "word",
             "repetition_index", "audio_path", "transcript"]
        )
        for spk in range(sizes.speakers):
            for ses in range(sizes.sessions):
                for blk in range(sizes.blocks):
                    block_words = rng.sample(recorded, sizes.words_per_block)
                    for word in block_words:
                        for mic in range(sizes.microphones):
                            for rep in range(sizes.repetitions):
                                writer.writerow(
                                    [f"spk{spk}", f"s{ses}", f"b{blk}", f"mic{mic}",
                                     word, rep, f"{word}.wav", word]
                                )

    recorded_set = set(recorded)
    outside = [w for w in words if w not in recorded_set]
    with open(out / "sentences.txt", "w", encoding="utf-8") as f:
        for _ in range(sizes.sentences):
            tokens = [
                rng.choice(outside) if rng.random() < sizes.sentence_oov_rate
                else rng.choice(recorded)
                for _ in range(rng.randint(4, 10))
            ]
            tokens[0] = tokens[0].capitalize()
            f.write(" ".join(tokens) + rng.choice(".?!") + "\n")

    eval_vocab = rng.sample(words, min(2_000, len(words)))
    span = sizes.ref_words if sizes.ref_words is not None else sizes.ref_chars
    with open(out / "pairs.jsonl", "w", encoding="utf-8") as f:
        for i, target in enumerate(_spread(rng, *span, sizes.eval_pairs)):
            ref = _reference(rng, eval_vocab, target, sizes)
            hyp = _edit(rng, ref, eval_vocab, sizes)
            record = {"id": f"p{i:05d}", "reference": " ".join(ref),
                      "hypothesis": " ".join(hyp)}
            f.write(json.dumps(record) + "\n")

    meta = {
        "seed": seed,
        "sizes": asdict(sizes),
        "sample_rate": SAMPLE_RATE,
        "clip_samples": clip_samples,
    }
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    return meta


def ensure(workload: str, seed: int, cache: Path) -> Path:
    """Generate a workload's inputs once per (workload, seed) under `cache`.

    Writes into a temporary directory and renames it into place, so an
    interrupted generation never leaves a half-filled cache entry.
    """
    dest = cache / f"{workload}-s{seed}"
    if (dest / "meta.json").is_file():
        return dest
    tmp = cache / f".tmp-{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    generate(WORKLOADS[workload], seed, tmp)
    shutil.rmtree(dest, ignore_errors=True)
    tmp.rename(dest)
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", type=Path, required=True)
    args = parser.parse_args(argv)
    print(ensure(args.workload, args.seed, args.cache))
    return 0


if __name__ == "__main__":
    sys.exit(main())
