"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the production code paths: the edit
distance follows the textbook recursion, the weighted-selection oracle
recomputes scores from scratch at every step, the maximum-coverage
reference tries every subset, and the pool generator only uses the public
constructors.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from functools import lru_cache
from typing import Sequence

from corpusforge.selector import (
    CandidatePool,
    CandidateWord,
    PhonemeWeights,
    SelectionError,
)


def levenshtein_recursive(ref: Sequence[str], hyp: Sequence[str]) -> int:
    """Plain recursive edit distance definition, memoized."""

    @lru_cache(maxsize=None)
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if ref[i - 1] == hyp[j - 1] else 1
        return min(d(i - 1, j - 1) + cost, d(i - 1, j) + 1, d(i, j - 1) + 1)

    return d(len(ref), len(hyp))


def edit_decomposition_oracle(
    ref: Sequence[str], hyp: Sequence[str]
) -> tuple[int, int, int]:
    """(subs, dels, ins) from a textbook full-table DP.

    The table is the plain Wagner-Fischer recurrence. The walk back from
    the corner takes the first move that explains the cell in the order
    documented for ``metrics.edit_counts``: diagonal (match or
    substitution), then up (deletion), then left (insertion).
    """
    n, m = len(ref), len(hyp)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(m + 1):
            if i == 0 or j == 0:
                table[i][j] = i + j
            else:
                cost = 0 if ref[i - 1] == hyp[j - 1] else 1
                table[i][j] = min(
                    table[i - 1][j - 1] + cost,
                    table[i - 1][j] + 1,
                    table[i][j - 1] + 1,
                )
    subs = dels = ins = 0
    i, j = n, m
    while (i, j) != (0, 0):
        here = table[i][j]
        cost = 1 if i and j and ref[i - 1] != hyp[j - 1] else 0
        if i and j and here == table[i - 1][j - 1] + cost:
            subs += cost
            i, j = i - 1, j - 1
        elif i and here == table[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return subs, dels, ins


def random_pool(
    rng: random.Random, max_words: int = 12, alphabet_size: int = 5
) -> CandidatePool:
    """Random candidate pool with a bounded biphone universe.

    With `alphabet_size` phonemes there are at most alphabet_size**2
    distinct biphones; 4 symbols keep the universe at <= 16, 5 at <= 25.
    """
    alphabet = [chr(ord("a") + i) for i in range(alphabet_size)]
    n = rng.randint(1, max_words)
    items = []
    for i in range(n):
        length = rng.randint(1, 6)
        seq = tuple(rng.choice(alphabet) for _ in range(length))
        items.append((f"w{i:02d}", seq))
    return CandidatePool.build(items)


def gbc_oracle_trace(pool: CandidatePool, k: int) -> list[str]:
    """Replay coverage selection by rescanning every candidate at each step.

    Straight-line evaluation: the first candidate with the strictly largest
    number of uncovered biphones wins; selection ends at `k` picks or when
    no candidate adds a biphone.
    """
    remaining: list[CandidateWord] = list(pool.words)
    covered: set = set()
    trace: list[str] = []
    while remaining and len(trace) < k:
        best = None
        best_gain = 0
        for cand in remaining:
            gain = len(cand.biphones - covered)
            if gain > best_gain:
                best, best_gain = cand, gain
        if best is None:
            break
        covered |= best.biphones
        remaining.remove(best)
        trace.append(best.word)
    return trace


def pwps_oracle_trace(
    pool: CandidatePool, k_prime: int, weights: PhonemeWeights
) -> list[str]:
    """Replay weighted selection with from-scratch scoring at every step.

    Straight-line evaluation: no incremental counts, no shared state with
    the implementation. Scores recompute the occurrence counter over the
    already-picked words each time.
    """
    remaining: list[CandidateWord] = list(pool.words)
    picked: list[CandidateWord] = []
    trace: list[str] = []
    while remaining and len(trace) < k_prime:
        counts = Counter(p for cand in picked for p in cand.phonemes)
        best = None
        best_score = 0.0
        for cand in remaining:
            score = 0.0
            for p in sorted(set(cand.phonemes)):
                if p in weights.weights:
                    score += weights.weights[p] / (counts[p] + 1)
            if score > best_score:
                best, best_score = cand, score
        if best is None:
            best = remaining[0]
        picked.append(best)
        remaining.remove(best)
        trace.append(best.word)
    return trace


def brute_force_max_coverage(
    pool: CandidatePool, k: int
) -> tuple[tuple[str, ...], int]:
    """Exhaustive maximum-coverage reference for small pools (<= 20 words).

    Returns the subset of size <= k with the largest biphone union and its
    coverage; ties go to the lexicographically smallest index subset in
    canonical pool order. Exponential in the pool size.
    """
    n = len(pool.words)
    if n == 0:
        raise SelectionError("candidate pool is empty")
    if n > 20:
        raise SelectionError(f"brute force limited to 20 words, got {n}")
    if k < 1:
        raise SelectionError(f"budget k must be >= 1, got {k}")
    universe: dict = {}
    for cand in pool.words:
        for bp in sorted(cand.biphones):
            universe.setdefault(bp, len(universe))
    masks = []
    for cand in pool.words:
        m = 0
        for bp in cand.biphones:
            m |= 1 << universe[bp]
        masks.append(m)
    best_idx: tuple[int, ...] = ()
    best_cov = 0
    for r in range(1, min(k, n) + 1):
        for combo in itertools.combinations(range(n), r):
            m = 0
            for i in combo:
                m |= masks[i]
            cov = bin(m).count("1")
            if cov > best_cov or (cov == best_cov and combo < best_idx):
                best_idx, best_cov = combo, cov
    return tuple(pool.words[i].word for i in best_idx), best_cov
