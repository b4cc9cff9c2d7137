"""Acceptance suite: every shipped guarantee, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion in addition to pytest's own verdicts.
"""

import contextlib
import json
import math
import random
import time
from dataclasses import asdict

import numpy as np
import pytest

from corpusforge.audio import AudioError, ConcatSpec, concat, read_wav, write_wav
from corpusforge.cli import main as cli_main
from corpusforge.dataset import audit_leakage, split
from corpusforge.lexicon import biphones
from corpusforge.llmclient import LlmServiceError, generate_sentences, generate_validated_plans
from corpusforge.metrics import EvalPair, corpus_rate, edit_counts, edit_rate
from corpusforge.rechain import WordInventory, plan_random
from corpusforge.selector import (
    CandidatePool,
    PhonemeWeights,
    coverage_report,
    gbc_select,
    pwps_select,
    replay_selection,
)

from conftest import tone_clip
from oracles import (
    brute_force_max_coverage,
    group_key,
    levenshtein_recursive,
    pwps_oracle_trace,
    random_pool,
)
from stubserver import stub_server
from test_dataset import random_manifest
from test_llmclient import make_request


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {label}")
        raise
    print(f"[PASS] criterion {num:2d}: {label}")


def test_01_gbc_approximation_bound():
    with criterion(1, "greedy coverage >= (1 - 1/e) * brute-force optimum"):
        rng = random.Random(20240811)
        factor = 1 - 1 / math.e
        start = time.perf_counter()
        for _ in range(200):
            pool = random_pool(rng, max_words=12, alphabet_size=4)
            k = rng.randint(1, 4)
            greedy_cov = len(gbc_select(pool, k).covered_biphones)
            _, optimum = brute_force_max_coverage(pool, k)
            assert greedy_cov >= factor * optimum
        assert time.perf_counter() - start < 10.0


def test_02_gbc_hand_traces():
    with criterion(2, "greedy coverage reproduces the worked selection traces"):
        pool = CandidatePool.build(
            [("w1", ("a", "b", "c", "d")), ("w2", ("a", "b", "c")), ("w3", ("d", "e"))]
        )
        assert gbc_select(pool, 2).selected_words == ["w1", "w3"]

        pool = CandidatePool.build([("w1", ("a", "b"))])
        assert gbc_select(pool, 5).selected_words == ["w1"]

        pool = CandidatePool.build([("w1", ("a", "b")), ("w2", ("a", "b"))])
        assert gbc_select(pool, 2).selected_words == ["w1"]


def test_03_pwps_matches_straight_line_oracle():
    with criterion(3, "weighted selection matches from-scratch score replay"):
        rng = random.Random(31337)
        for _ in range(100):
            pool = random_pool(rng, max_words=12, alphabet_size=5)
            targets = {
                p: rng.uniform(0.05, 4.0) for p in "abcde" if rng.random() < 0.7
            } or {"a": 1.0}
            weights = PhonemeWeights(targets)
            k_prime = rng.randint(1, len(pool))
            got = pwps_select(pool, k_prime, weights).selected_words
            assert got == pwps_oracle_trace(pool, k_prime, weights)


def test_04_gbc_terminates_without_zero_gain_steps():
    with criterion(4, "greedy coverage halts when nothing new remains"):
        rng = random.Random(404)
        for _ in range(100):
            # Tiny alphabets keep the biphone supply far below the budget.
            pool = random_pool(rng, max_words=8, alphabet_size=2)
            state = gbc_select(pool, 1000)
            report = coverage_report(state)
            assert 0 not in report.per_step_gain
            union = frozenset().union(*(c.biphones for c in pool.words))
            assert state.covered_biphones == union
            assert len(state.selected) < 1000


def test_05_edit_distance_oracle_fuzz():
    with criterion(5, "edit distance equals the recursive definition on 1000 pairs"):
        rng = random.Random(5555)
        start = time.perf_counter()
        for _ in range(1000):
            ref = tuple(rng.choice("abcde") for _ in range(rng.randint(0, 12)))
            hyp = tuple(rng.choice("abcde") for _ in range(rng.randint(0, 12)))
            subs, dels, ins = edit_counts(ref, hyp)
            assert subs + dels + ins == levenshtein_recursive(ref, hyp)
        assert time.perf_counter() - start < 5.0


def test_06_metric_point_checks():
    with criterion(6, "metric point values (word 1/3, char 1/3, pooled 0.1)"):
        wer = edit_rate(EvalPair("der hund bellt", "der hund"), "word")
        assert wer.total_edits == 1 and wer.reference_length == 3
        assert wer.rate == 1 / 3

        cer = edit_rate(EvalPair("abc", "abd"), "char")
        assert cer.total_edits == 1 and cer.reference_length == 3
        assert cer.rate == 1 / 3

        pooled = corpus_rate(
            [
                EvalPair("a b", "a c"),
                EvalPair("a b c d e f g h", "a b c d e f g h"),
            ],
            "word",
        )
        assert pooled.total_edits == 1 and pooled.reference_length == 10
        assert pooled.rate == 0.1


def test_07_split_leakage_suite():
    with criterion(7, "0 spanning groups over 100 manifests x 3 policies"):
        rng = random.Random(20250707)
        for _ in range(100):
            manifest = random_manifest(rng)
            ratio = rng.uniform(0.3, 0.9)
            for policy in ("strict", "mixed", "natural"):
                assignment = split(manifest, policy, ratio, seed=rng.randint(0, 10**6))
                audit = audit_leakage(manifest, assignment)
                assert audit.spanning_group_keys == 0
                if policy == "strict":
                    assert audit.vocabulary_overlap == 0
                sizes: dict = {}
                for entry in manifest.entries:
                    key = group_key(entry, policy)
                    sizes[key] = sizes.get(key, 0) + 1
                largest = max(sizes.values())
                target = ratio * audit.total_entries
                assert abs(audit.train_entries - target) <= largest


def test_08_rechain_reproducibility_and_uniformity():
    with criterion(8, "random plans reproduce by seed and draw uniformly"):
        inventory = WordInventory(
            {"eins": ("eins.wav",), "zwei": ("zwei.wav",), "drei": ("drei.wav",)}
        )
        first = json.dumps(plan_random(inventory, 50, seed=8).to_dict()).encode()
        second = json.dumps(plan_random(inventory, 50, seed=8).to_dict()).encode()
        assert first == second

        m = 100_000
        plan = plan_random(inventory, m, seed=88)
        sigma = math.sqrt((1 / 3) * (2 / 3) / m)
        for word in inventory.items:
            freq = sum(1 for w, _ in plan.words if w == word) / m
            assert abs(freq - 1 / 3) <= 3 * sigma


def test_09_audio_exactness(tmp_path):
    with criterion(9, "concat sample arithmetic, WAV round-trip, rate mismatch"):
        one = tone_clip(440, 1.0, 16000)
        two = tone_clip(660, 2.0, 16000)
        out = concat([one, two], ConcatSpec(gap_ms=150))
        assert out.duration_samples == 50_400

        path = tmp_path / "out.wav"
        write_wav(out, path)
        loaded = read_wav(path)
        assert loaded.sample_rate == out.sample_rate
        assert np.array_equal(loaded.samples, out.samples)

        with pytest.raises(AudioError, match="mixed sample rates"):
            concat([one, tone_clip(440, 0.5, 44100)], ConcatSpec())


def test_10_coverage_report_consistency():
    with criterion(10, "coverage reports match from-scratch recomputation"):
        rng = random.Random(1010)
        for _ in range(50):
            pool = random_pool(rng, max_words=10, alphabet_size=5)
            mode = rng.choice(("gbc", "pwps", "replay"))
            if mode == "gbc":
                state = gbc_select(pool, rng.randint(1, 6))
            elif mode == "pwps":
                weights = PhonemeWeights({"a": 1.0, "b": 2.0})
                state = pwps_select(pool, rng.randint(1, len(pool)), weights)
            else:
                words = [c.word for c in pool.words]
                rng.shuffle(words)
                state = replay_selection(pool, words[: rng.randint(0, len(words))])
            report = coverage_report(state)
            recomputed = set()
            for cand in state.selected:
                recomputed |= set(biphones(cand.phonemes))
            assert report.distinct_biphones == len(recomputed)
            data = asdict(report)
            # Dataset-statistics table format: word and biphone totals.
            assert "word_count" in data and "distinct_biphones" in data
            assert data["word_count"] == len(state.selected)


def test_11_llm_client_hermetic(monkeypatch):
    with criterion(11, "stub-server client: retry schedule, OOV filter, guard"):
        monkeypatch.setenv("CORPUSFORGE_LLM_KEY", "k")
        inventory = WordInventory(
            {w: (f"{w}.wav",) for w in ("der", "hund", "bellt", "die", "katze")}
        )

        sleeps: list = []
        with stub_server([(500, {"err": "x"})]) as srv:
            with pytest.raises(LlmServiceError) as exc_info:
                generate_sentences(make_request(srv.url), sleep=sleeps.append)
            assert len(srv.requests) == 3
            assert len({r["body"] for r in srv.requests}) == 1
        assert sleeps == [1.0, 2.0]
        assert exc_info.value.attempts == 3

        text = "der hund bellt\nder hund fliegt"
        with stub_server([(500, {}), (200, {"text": text})]) as srv:
            accepted, rejected = generate_validated_plans(
                make_request(srv.url), inventory, sleep=lambda _: None
            )
            assert len(srv.requests) == 2  # one retry, then success
        assert [p.text for p in accepted] == ["der hund bellt"]
        assert rejected == [("der hund fliegt", ["fliegt"])]
        for plan in accepted:
            assert all(w in inventory for w, _ in plan.words)


def _run_pipeline(toy, out_root):
    """select -> rechain -> concat -> split -> eval; returns primary bytes."""
    steps = [
        (
            "select",
            "--lexicon", toy / "lexicon.tsv",
            "--corpus", toy / "corpus.txt",
            "--k", "2", "--k-prime", "1",
            "--weights", toy / "weights.json",
            "--out-dir", out_root / "select",
        ),
        (
            "rechain", "manual",
            "--manifest", toy / "manifest.csv",
            "--sentences", toy / "sentences.txt",
            "--out-dir", out_root / "plans",
        ),
        (
            "concat",
            "--plan", out_root / "plans" / "plans.jsonl",
            "--audio-root", toy / "audio",
            "--gap-ms", "150",
            "--out-dir", out_root / "wavs",
        ),
        (
            "split",
            "--manifest", toy / "manifest.csv",
            "--policy", "natural",
            "--ratio", "0.7", "--seed", "42",
            "--out-dir", out_root / "split",
        ),
        (
            "eval",
            "--pairs", toy / "pairs.jsonl",
            "--mode", "cer",
            "--out-dir", out_root / "eval",
        ),
    ]
    for argv in steps:
        assert cli_main([str(a) for a in argv]) == 0, argv[0]
    outputs = {}
    for path in sorted(out_root.rglob("*")):
        if path.is_file() and path.name != "run.json":
            outputs[str(path.relative_to(out_root))] = path.read_bytes()
    run_files = [p for p in out_root.rglob("run.json")]
    assert len(run_files) == 5
    return outputs


def test_12_end_to_end_smoke(toy_corpus, tmp_path):
    with criterion(12, "toy-fixture pipeline runs clean and deterministically"):
        first = _run_pipeline(toy_corpus, tmp_path / "run1")
        second = _run_pipeline(toy_corpus, tmp_path / "run2")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"nondeterministic output: {name}"
        assert any(name.endswith(".wav") for name in first)
