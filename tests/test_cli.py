import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import corpusforge
from corpusforge import audio, metrics
from corpusforge.audio import ConcatSpec
from corpusforge.cli import COMMANDS, OUT_DIR, build_parser, main
from corpusforge.rechain import SentencePlan, write_plans

from oracles import concat_oracle
from stubserver import stub_server


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_jsonl(path: Path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


class TestSelect:
    def test_full_selection(self, toy_corpus, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "select",
            "--lexicon", toy_corpus / "lexicon.tsv",
            "--corpus", toy_corpus / "corpus.txt",
            "--k", 2, "--k-prime", 1,
            "--weights", toy_corpus / "weights.json",
            "--out-dir", out,
        )
        assert code == 0
        gbc = (out / "selected_gbc.txt").read_text().split()
        pwps = (out / "selected_pwps.txt").read_text().split()
        # Hand trace: initial biphone gains are katze 4, schläft 4, hund 3,
        # bellt 3, der 2, nein 2, die 1, ja 1. The katze/schläft tie breaks
        # to katze (canonical order); schläft still gains 4 and wins step 2.
        # Weighted stage over the remainder with ʃ:2, l:1: only bellt
        # contains a target phoneme (l) -> bellt.
        assert gbc == ["katze", "schläft"]
        assert pwps == ["bellt"]
        coverage = read_json(out / "coverage.json")
        assert coverage["gbc"]["distinct_biphones"] == 8
        assert coverage["gbc"]["per_step_gain"] == [4, 4]
        assert coverage["combined"]["word_count"] == 3
        assert coverage["combined"]["distinct_biphones"] == 11
        assert coverage["oov_skipped"] == 0
        assert (out / "run.json").exists()

    def test_five_word_two_stage_trace(self, toy_corpus, tmp_path):
        corpus = tmp_path / "five.txt"
        corpus.write_text("der\nhund\nbellt\ndie\nkatze\n")
        out = tmp_path / "out"
        code = run_cli(
            "select",
            "--lexicon", toy_corpus / "lexicon.tsv",
            "--corpus", corpus,
            "--k", 2, "--k-prime", 1,
            "--weights", toy_corpus / "weights.json",
            "--out-dir", out,
        )
        assert code == 0
        # Gains: katze 4, bellt 3, hund 3, der 2, die 1. Step 1 katze, step 2
        # ties bellt/hund at 3 -> bellt. Weighted remainder {der, die, hund}
        # holds no target phoneme, so canonical order yields der.
        assert (out / "selected_gbc.txt").read_text().split() == ["katze", "bellt"]
        assert (out / "selected_pwps.txt").read_text().split() == ["der"]

    def test_zero_budget_is_usage_error(self, toy_corpus, tmp_path):
        code = run_cli(
            "select",
            "--lexicon", toy_corpus / "lexicon.tsv",
            "--corpus", toy_corpus / "corpus.txt",
            "--k", 0,
            "--out-dir", tmp_path / "out",
        )
        assert code == 1

    def test_oov_words_skipped_with_warning(self, toy_corpus, tmp_path, caplog):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("hund\nbellt\nwarp\n")
        out = tmp_path / "out"
        with caplog.at_level("WARNING"):
            code = run_cli(
                "select",
                "--lexicon", toy_corpus / "lexicon.tsv",
                "--corpus", corpus,
                "--k", 2,
                "--out-dir", out,
            )
        assert code == 0
        assert "1 corpus word(s)" in caplog.text
        assert read_json(out / "coverage.json")["oov_skipped"] == 1

    def test_all_oov_is_data_error(self, toy_corpus, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("warp\ncore\n")
        code = run_cli(
            "select",
            "--lexicon", toy_corpus / "lexicon.tsv",
            "--corpus", corpus,
            "--k", 1,
            "--out-dir", tmp_path / "out",
        )
        assert code == 2

    def test_budgets_beyond_corpus_select_everything_eligible(
        self, toy_corpus, tmp_path
    ):
        out = tmp_path / "out"
        code = run_cli(
            "select",
            "--lexicon", toy_corpus / "lexicon.tsv",
            "--corpus", toy_corpus / "corpus.txt",
            "--k", 10, "--k-prime", 10,
            "--weights", toy_corpus / "weights.json",
            "--out-dir", out,
        )
        assert code == 0
        gbc = (out / "selected_gbc.txt").read_text().split()
        pwps = (out / "selected_pwps.txt").read_text().split()
        assert len(gbc) + len(pwps) == 8
        assert not set(gbc) & set(pwps)

    def test_missing_lexicon_is_usage_error(self, toy_corpus, tmp_path, capsys):
        code = run_cli(
            "select",
            "--corpus", toy_corpus / "corpus.txt",
            "--k", 2,
            "--out-dir", tmp_path / "out",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "lexicon" in err
        assert "usage" in err

    def test_nonexistent_lexicon_is_usage_error(self, toy_corpus, tmp_path):
        code = run_cli(
            "select",
            "--lexicon", tmp_path / "missing.tsv",
            "--corpus", toy_corpus / "corpus.txt",
            "--k", 2,
            "--out-dir", tmp_path / "out",
        )
        assert code == 1

    def test_config_file_supplies_values(self, toy_corpus, tmp_path):
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "lexicon_path": str(toy_corpus / "lexicon.tsv"),
                    "corpus_path": str(toy_corpus / "corpus.txt"),
                    "k": 2,
                    "output_dir": str(out),
                }
            )
        )
        assert run_cli("select", "--config", config) == 0
        assert (out / "selected_gbc.txt").exists()


class TestRechainAndConcat:
    def test_manual_plans(self, toy_corpus, tmp_path):
        out = tmp_path / "plans"
        code = run_cli(
            "rechain", "manual",
            "--manifest", toy_corpus / "manifest.csv",
            "--sentences", toy_corpus / "sentences.txt",
            "--out-dir", out,
        )
        assert code == 0
        plans = read_jsonl(out / "plans.jsonl")
        assert len(plans) == 2
        assert plans[0]["provenance"] == "manual"
        assert read_jsonl(out / "rejected.jsonl") == []

    def test_manual_rejects_oov_sentences(self, toy_corpus, tmp_path):
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("Der Hund bellt.\nDas Pferd wiehert.\n")
        out = tmp_path / "plans"
        assert run_cli(
            "rechain", "manual",
            "--manifest", toy_corpus / "manifest.csv",
            "--sentences", sentences,
            "--out-dir", out,
        ) == 0
        rejected = read_jsonl(out / "rejected.jsonl")
        assert len(rejected) == 1
        assert rejected[0]["missing"] == ["das", "pferd", "wiehert"]

    def test_random_requires_seed(self, toy_corpus, tmp_path):
        code = run_cli(
            "rechain", "random",
            "--manifest", toy_corpus / "manifest.csv",
            "--count", 2,
            "--out-dir", tmp_path / "plans",
        )
        assert code == 1

    def test_random_plans_deterministic(self, toy_corpus, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(
                "rechain", "random",
                "--manifest", toy_corpus / "manifest.csv",
                "--count", 3, "--seed", 11,
                "--out-dir", out,
            ) == 0
            outs.append((out / "plans.jsonl").read_bytes())
        assert outs[0] == outs[1]
        plans = read_jsonl(tmp_path / "a" / "plans.jsonl")
        assert len(plans) == 3
        assert all(3 <= len(p["words"]) <= 8 for p in plans)

    def test_llm_mode_via_stub(self, toy_corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("CORPUSFORGE_LLM_KEY", "k")
        out = tmp_path / "plans"
        with stub_server([(200, {"text": "der hund bellt\nkatze tanzt"})]) as srv:
            llm_config = tmp_path / "llm.json"
            llm_config.write_text(
                json.dumps(
                    {
                        "endpoint_url": srv.url,
                        "model_name": "stub",
                        "response_text_path": "text",
                        "prompt_template": "{count} sentences from: {words}",
                    }
                )
            )
            code = run_cli(
                "rechain", "llm",
                "--manifest", toy_corpus / "manifest.csv",
                "--llm-config", llm_config,
                "--count", 2,
                "--out-dir", out,
            )
        assert code == 0
        assert len(read_jsonl(out / "plans.jsonl")) == 1
        assert read_jsonl(out / "rejected.jsonl")[0]["missing"] == ["tanzt"]

    def test_random_records_count_from_config(self, toy_corpus, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"plan_count": 2, "seeds": {"rechain": 5}}))
        out = tmp_path / "plans"
        assert run_cli(
            "rechain", "random",
            "--manifest", toy_corpus / "manifest.csv",
            "--config", config,
            "--out-dir", out,
        ) == 0
        assert len(read_jsonl(out / "plans.jsonl")) == 2
        assert read_json(out / "run.json")["config"]["count"] == 2

    def test_llm_records_count_from_config(self, toy_corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("CORPUSFORGE_LLM_KEY", "k")
        out = tmp_path / "plans"
        with stub_server([(200, {"text": "der hund bellt"})]) as srv:
            llm_config = tmp_path / "llm.json"
            llm_config.write_text(
                json.dumps(
                    {
                        "endpoint_url": srv.url,
                        "model_name": "stub",
                        "prompt_template": "{count} x {words}",
                    }
                )
            )
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"sentence_count": 1}))
            code = run_cli(
                "rechain", "llm",
                "--manifest", toy_corpus / "manifest.csv",
                "--llm-config", llm_config,
                "--config", config,
                "--out-dir", out,
            )
        assert code == 0
        assert read_json(out / "run.json")["config"]["count"] == 1

    def test_zero_plan_length_is_usage_error(self, toy_corpus, tmp_path, capsys):
        code = run_cli(
            "rechain", "random",
            "--manifest", toy_corpus / "manifest.csv",
            "--count", 2, "--seed", 1, "--m", 0,
            "--out-dir", tmp_path / "plans",
        )
        assert code == 1
        assert "m must be >= 1" in capsys.readouterr().err

    def test_random_takes_m_from_config(self, toy_corpus, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"m": 2, "plan_count": 3, "seeds": {"rechain": 5}})
        )
        out = tmp_path / "plans"
        assert run_cli(
            "rechain", "random",
            "--manifest", toy_corpus / "manifest.csv",
            "--config", config,
            "--out-dir", out,
        ) == 0
        assert [len(p["words"]) for p in read_jsonl(out / "plans.jsonl")] == [2, 2, 2]
        assert read_json(out / "run.json")["config"]["m"] == 2

    def test_manual_records_only_its_own_options(self, toy_corpus, tmp_path):
        argv = [
            "rechain", "manual",
            "--manifest", toy_corpus / "manifest.csv",
            "--sentences", toy_corpus / "sentences.txt",
        ]
        out = tmp_path / "plans"
        assert run_cli(*argv, "--out-dir", out) == 0
        assert set(read_json(out / "run.json")["config"]) == {
            "mode", "manifest_path", "sentences_path", "output_dir",
        }
        # Options of the random mode do nothing here, so they are refused.
        assert run_cli(*argv, "--count", 9, "--m", 4, "--out-dir", tmp_path / "x") == 1
        assert not (tmp_path / "x").exists()

    def test_llm_service_failure_exit_code(self, toy_corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("CORPUSFORGE_LLM_KEY", "k")
        monkeypatch.setattr("corpusforge.llmclient.BACKOFF_BASE_S", 0.0)
        with stub_server([(500, {})]) as srv:
            llm_config = tmp_path / "llm.json"
            llm_config.write_text(
                json.dumps(
                    {
                        "endpoint_url": srv.url,
                        "model_name": "stub",
                        "prompt_template": "{count} x {words}",
                    }
                )
            )
            code = run_cli(
                "rechain", "llm",
                "--manifest", toy_corpus / "manifest.csv",
                "--llm-config", llm_config,
                "--count", 1,
                "--out-dir", tmp_path / "plans",
            )
        assert code == 3

    def test_concat_renders_plans(self, toy_corpus, tmp_path):
        plans_dir = tmp_path / "plans"
        run_cli(
            "rechain", "manual",
            "--manifest", toy_corpus / "manifest.csv",
            "--sentences", toy_corpus / "sentences.txt",
            "--out-dir", plans_dir,
        )
        out = tmp_path / "wavs"
        code = run_cli(
            "concat",
            "--plan", plans_dir / "plans.jsonl",
            "--audio-root", toy_corpus / "audio",
            "--gap-ms", 150,
            "--out-dir", out,
        )
        assert code == 0
        records = read_jsonl(out / "concat_manifest.jsonl")
        assert [r["audio_path"] for r in records] == ["utt_0000.wav", "utt_0001.wav"]
        # 3 words of 0.25 s at 16 kHz plus two 150 ms gaps.
        assert records[0]["num_samples"] == 3 * 4000 + 2 * 2400
        assert (out / "utt_0000.wav").is_file()


    def _manual_plans(self, toy_corpus, tmp_path) -> Path:
        plans_dir = tmp_path / "plans"
        assert run_cli(
            "rechain", "manual",
            "--manifest", toy_corpus / "manifest.csv",
            "--sentences", toy_corpus / "sentences.txt",
            "--out-dir", plans_dir,
        ) == 0
        return plans_dir / "plans.jsonl"

    def test_concat_takes_gap_and_fade_from_config(self, toy_corpus, tmp_path):
        plan = self._manual_plans(toy_corpus, tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"gap_ms": 100, "fade_ms": 7}))
        out = tmp_path / "wavs"
        assert run_cli(
            "concat", "--plan", plan, "--audio-root", toy_corpus / "audio",
            "--config", config, "--out-dir", out,
        ) == 0
        effective = read_json(out / "run.json")["config"]
        assert (effective["gap_ms"], effective["fade_ms"]) == (100, 7)
        assert read_jsonl(out / "concat_manifest.jsonl")[0]["num_samples"] == (
            3 * 4000 + 2 * 1600
        )
        # Flags still win over the config.
        out = tmp_path / "flags"
        assert run_cli(
            "concat", "--plan", plan, "--audio-root", toy_corpus / "audio",
            "--config", config, "--fade-ms", 0, "--out-dir", out,
        ) == 0
        assert read_json(out / "run.json")["config"]["fade_ms"] == 0

    @pytest.mark.parametrize("fade_ms", [0, 5])
    def test_concat_reads_each_recording_once(
        self, toy_corpus, tmp_path, monkeypatch, fade_ms
    ):
        refs = ["der.wav", "hund.wav", "der.wav", "katze.wav", "hund.wav", "der.wav"]
        plans = [
            SentencePlan(tuple((ref[:-4], ref) for ref in refs[i : i + 3]), "manual")
            for i in range(4)
        ]
        write_plans(plans, tmp_path / "plans.jsonl")
        reads = []
        read_wav = audio.read_wav

        def counting_read_wav(path):
            reads.append(path)
            return read_wav(path)

        monkeypatch.setattr(audio, "read_wav", counting_read_wav)
        out = tmp_path / "wavs"
        assert run_cli(
            "concat", "--plan", tmp_path / "plans.jsonl",
            "--audio-root", toy_corpus / "audio",
            "--gap-ms", 40, "--fade-ms", fade_ms, "--out-dir", out,
        ) == 0
        assert len(reads) == len(set(refs)) == 3
        spec = ConcatSpec(gap_ms=40, fade_ms=fade_ms)
        for index, plan in enumerate(plans):
            assert (out / f"utt_{index:04d}.wav").read_bytes() == concat_oracle(
                plan, toy_corpus / "audio", spec
            )

    def test_recording_with_no_samples_is_data_error(
        self, toy_corpus, tmp_path, capsys
    ):
        # b.wav declares an empty data chunk, then holds 3,200 bytes of PCM.
        # Read as 0 samples, w1 would be missing from the utterance.
        root = tmp_path / "audio"
        root.mkdir()
        clip = (toy_corpus / "audio" / "der.wav").read_bytes()
        (root / "a.wav").write_bytes(clip)
        header = clip[:40]
        (root / "b.wav").write_bytes(header + bytes(4) + bytes(range(100)) * 32)
        words = (("w0", "a.wav"), ("w1", "b.wav"), ("w2", "a.wav"))
        write_plans([SentencePlan(words, "manual")], tmp_path / "plans.jsonl")
        out = tmp_path / "wavs"
        code = run_cli(
            "concat", "--plan", tmp_path / "plans.jsonl", "--audio-root", root,
            "--gap-ms", 0, "--out-dir", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{root / 'b.wav'}: data chunk holds no samples" in err
        assert not (out / "concat_manifest.jsonl").exists()

    def test_recording_with_short_data_chunk_is_data_error(
        self, toy_corpus, tmp_path, capsys
    ):
        # b.wav's data chunk declares 100 of its 8,000 bytes; the samples
        # after it would be walked as chunks, and w1 read 50 samples long.
        root = tmp_path / "audio"
        root.mkdir()
        clip = (toy_corpus / "audio" / "der.wav").read_bytes()
        (root / "a.wav").write_bytes(clip)
        (root / "b.wav").write_bytes(clip[:40] + (100).to_bytes(4, "little") + clip[44:])
        words = (("w0", "a.wav"), ("w1", "b.wav"), ("w2", "a.wav"))
        write_plans([SentencePlan(words, "manual")], tmp_path / "plans.jsonl")
        out = tmp_path / "wavs"
        code = run_cli(
            "concat", "--plan", tmp_path / "plans.jsonl", "--audio-root", root,
            "--gap-ms", 0, "--out-dir", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{root / 'b.wav'}: " in err and " chunk declares " in err
        assert not (out / "concat_manifest.jsonl").exists()

    @pytest.mark.parametrize("gap", ["wide", 1.5, True, 1e999])
    def test_non_integer_gap_in_config_is_usage_error(
        self, toy_corpus, tmp_path, capsys, gap
    ):
        plan = self._manual_plans(toy_corpus, tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"gap_ms": gap}))
        code = run_cli(
            "concat", "--plan", plan, "--audio-root", toy_corpus / "audio",
            "--config", config, "--out-dir", tmp_path / "wavs",
        )
        assert code == 1
        assert "gap_ms" in capsys.readouterr().err


class TestSplitCommand:
    def test_split_outputs(self, toy_corpus, tmp_path):
        out = tmp_path / "split"
        code = run_cli(
            "split",
            "--manifest", toy_corpus / "manifest.csv",
            "--policy", "natural",
            "--ratio", 0.7, "--seed", 42,
            "--out-dir", out,
        )
        assert code == 0
        audit = read_json(out / "split_audit.json")
        assert audit["spanning_group_keys"] == 0
        assert audit["policy"] == "natural"
        rows = read_jsonl(out / "split_assignment.jsonl")
        assert len(rows) == 6

    def test_split_requires_seed(self, toy_corpus, tmp_path):
        code = run_cli(
            "split",
            "--manifest", toy_corpus / "manifest.csv",
            "--policy", "natural",
            "--ratio", 0.7,
            "--out-dir", tmp_path / "split",
        )
        assert code == 1

    def test_unknown_policy_in_config_is_usage_error(self, toy_corpus, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"policy": "bogus"}))
        code = run_cli(
            "split",
            "--manifest", toy_corpus / "manifest.csv",
            "--config", config,
            "--ratio", 0.7, "--seed", 42,
            "--out-dir", tmp_path / "split",
        )
        assert code == 1

    @pytest.mark.parametrize("ratio", [True, "most", [0.5]])
    def test_non_numeric_ratio_in_config_is_usage_error(
        self, toy_corpus, tmp_path, capsys, ratio
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"train_ratio": ratio}))
        code = run_cli(
            "split",
            "--manifest", toy_corpus / "manifest.csv",
            "--config", config,
            "--policy", "natural", "--seed", 42,
            "--out-dir", tmp_path / "split",
        )
        assert code == 1
        assert "train_ratio" in capsys.readouterr().err

    def test_excel_bom_manifest_gives_same_outputs(self, toy_corpus, tmp_path):
        plain = toy_corpus / "manifest.csv"
        bom = tmp_path / "excel.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for manifest in (plain, bom):
            out = tmp_path / manifest.stem
            assert run_cli(
                "split", "--manifest", manifest, "--policy", "natural",
                "--ratio", 0.5, "--seed", 3, "--out-dir", out / "split",
            ) == 0
            assert run_cli(
                "rechain", "random", "--manifest", manifest,
                "--count", 3, "--seed", 11, "--out-dir", out / "plans",
            ) == 0
            outputs.append((
                (out / "split" / "split_assignment.jsonl").read_bytes(),
                (out / "plans" / "plans.jsonl").read_bytes(),
            ))
        assert outputs[0] == outputs[1]

    def test_single_group_manifest_is_data_error(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "speaker_id,session_id,block_id,microphone_id,word,"
            "repetition_index,audio_path,transcript\n"
            "spk1,s1,b1,m1,hund,0,a.wav,hund\n"
            "spk1,s1,b1,m2,hund,0,b.wav,hund\n"
        )
        code = run_cli(
            "split",
            "--manifest", manifest,
            "--policy", "strict",
            "--ratio", 0.5, "--seed", 1,
            "--out-dir", tmp_path / "out",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "rep, shown", [("2.7", "2.7"), ("true", "True"), ("Infinity", "inf"),
                       ("NaN", "nan")],
    )
    def test_jsonl_non_integer_repetition_index_is_data_error(
        self, tmp_path, capsys, rep, shown
    ):
        manifest = tmp_path / "m.jsonl"
        rows = [
            '{"speaker_id": "spk%d", "session_id": "s1", "block_id": "b1", '
            '"microphone_id": "m1", "word": "hund", "repetition_index": %s, '
            '"audio_path": "a.wav", "transcript": "hund"}' % (i, rep)
            for i in (1, 2)
        ]
        manifest.write_text("\n".join(rows) + "\n")
        code = run_cli(
            "split", "--manifest", manifest, "--policy", "strict",
            "--ratio", 0.5, "--seed", 1, "--out-dir", tmp_path / "out",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"row 1: repetition_index must be an integer, got {shown}\n" in err

    def test_pipe_in_an_id_field_is_data_error(self, tmp_path, capsys):
        # Both rows would have the entry_id "a|b|c|b0|m0|hund|0", so split
        # wrote 3 label rows for 4 entries and exited 0.
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "speaker_id,session_id,block_id,microphone_id,word,"
            "repetition_index,audio_path,transcript\n"
            "a|b,c,b0,m0,hund,0,h1.wav,hund\n"
            "a,b|c,b0,m0,hund,0,h2.wav,hund\n"
            "a,c,b0,m0,katze,0,k1.wav,katze\n"
            "a,c,b1,m0,hund,0,h3.wav,hund\n"
        )
        out = tmp_path / "out"
        code = run_cli(
            "split", "--manifest", manifest, "--policy", "natural",
            "--ratio", 0.5, "--seed", 1, "--out-dir", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{manifest}: row 2: speaker_id must not contain '|'\n" in err
        assert not (out / "split_assignment.jsonl").exists()

    def test_oversized_cell_is_data_error(self, tmp_path, capsys):
        # A cell over the csv module's field limit (131,072 characters).
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "speaker_id,session_id,block_id,microphone_id,word,"
            "repetition_index,audio_path,transcript\n"
            f"a,s1,b0,m0,hund,0,h1.wav,{'x' * 140_000}\n"
        )
        out = tmp_path / "out"
        code = run_cli(
            "split", "--manifest", manifest, "--policy", "natural",
            "--ratio", 0.5, "--seed", 1, "--out-dir", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{manifest}: line 2: field larger than field limit (131072)" in err
        assert not (out / "split_assignment.jsonl").exists()


class TestEvalCommand:
    def test_eval_report(self, toy_corpus, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run_cli(
            "eval",
            "--pairs", toy_corpus / "pairs.jsonl",
            "--mode", "cer",
            "--out-dir", out,
        )
        assert code == 0
        report = read_json(out / "eval_report.json")
        assert report["mode"] == "cer"
        assert len(report["pairs"]) == 2
        assert report["pairs"][0]["rate"] == 0.0
        assert report["pooled"]["rate"] > 0
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["mode"] == "cer"
        # stdout carries exactly the bytes of the report file.
        assert stdout == (out / "eval_report.json").read_text()

    def test_each_pair_aligned_once(self, toy_corpus, tmp_path, monkeypatch):
        calls = []
        edit_counts = metrics.edit_counts

        def counting(reference, hypothesis):
            calls.append(1)
            return edit_counts(reference, hypothesis)

        monkeypatch.setattr(metrics, "edit_counts", counting)
        out = tmp_path / "eval"
        code = run_cli(
            "eval", "--pairs", toy_corpus / "pairs.jsonl", "--mode", "wer",
            "--out-dir", out,
        )
        assert code == 0
        assert len(calls) == len(read_json(out / "eval_report.json")["pairs"])

    def test_mode_from_config(self, toy_corpus, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mode": "cer"}))
        out = tmp_path / "eval"
        assert run_cli(
            "eval", "--pairs", toy_corpus / "pairs.jsonl", "--config", config,
            "--out-dir", out,
        ) == 0
        assert read_json(out / "eval_report.json")["mode"] == "cer"
        assert read_json(out / "run.json")["config"]["mode"] == "cer"

    def test_empty_reference_names_pair(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(
            '{"id": "ok", "reference": "hallo", "hypothesis": "hallo"}\n'
            '{"id": "bad-pair", "reference": "!!!", "hypothesis": "x"}\n'
        )
        out = tmp_path / "out"
        code = run_cli("eval", "--pairs", pairs, "--mode", "wer", "--out-dir", out)
        assert code == 2
        assert "bad-pair" in capsys.readouterr().err
        # The out-dir exists once the options pass; a failed run leaves no run.json.
        assert out.is_dir() and list(out.iterdir()) == []


def _manifest_row(word: str) -> dict:
    return {
        "speaker_id": "spk1", "session_id": "s1", "block_id": "b1",
        "microphone_id": "m1", "word": word, "repetition_index": 0,
        "audio_path": f"{word}.wav", "transcript": word,
    }


def _plan_record(word: str, recording="") -> dict:
    words = [{"word": word, "recording": recording or f"{word}.wav"}]
    return {"words": words, "provenance": "manual", "seed": None, "source_text": word}


# Per command reading a JSONL input: two good records, one record of the
# wrong types, and the arguments that run it on a file.
JSONL_INPUTS = {
    "eval": (
        [{"id": "a", "reference": "der hund", "hypothesis": "der hund"},
         {"id": "b", "reference": "die katze", "hypothesis": "die kaze"}],
        {"id": "c", "reference": 5, "hypothesis": "x"},
        lambda path, root: ["eval", "--pairs", path, "--mode", "cer"],
    ),
    "concat": (
        [_plan_record("der"), _plan_record("hund")],
        _plan_record("der", recording=5),
        lambda path, root: ["concat", "--plan", path, "--audio-root", root / "audio"],
    ),
    "split": (
        [_manifest_row("der"), _manifest_row("hund")],
        {**_manifest_row("die"), "repetition_index": 2.5},
        lambda path, root: ["split", "--manifest", path, "--policy", "strict",
                            "--ratio", 0.5, "--seed", 1],
    ),
}


# Per command reading a JSONL input: a record holding a JSON array, and one
# holding a JSON boolean, where a string or number belongs.
JSONL_ARRAY_FIELDS = {
    "eval": {"id": ["a"], "reference": "der hund", "hypothesis": "der hund"},
    "concat": _plan_record("der", recording=["der.wav"]),
    "split": {**_manifest_row("die"), "word": ["die"]},
}
JSONL_BOOLEAN_FIELDS = {
    "eval": {"id": True, "reference": "der hund", "hypothesis": "der hund"},
    "concat": _plan_record("der", recording=True),
    "split": {**_manifest_row("die"), "transcript": False},
}


class TestJsonlInputs:
    """Pairs, plans and manifests share one JSONL reader and its rules."""

    @staticmethod
    def _run(command, toy_corpus, tmp_path, lines, name):
        path = tmp_path / f"{name}.jsonl"
        path.write_bytes(lines.encode("utf-8"))
        out = tmp_path / name
        argv = JSONL_INPUTS[command][2](path, toy_corpus)
        return run_cli(*argv, "--out-dir", out), out

    @pytest.mark.parametrize("command", list(JSONL_INPUTS))
    def test_bom_and_blank_lines_are_accepted(self, toy_corpus, tmp_path, command):
        first, second = (json.dumps(r) for r in JSONL_INPUTS[command][0])
        outputs = []
        for name, text in [
            ("plain", f"{first}\n{second}\n"),
            ("bom", f"\ufeff{first}\n\n   \r\n{second}\n\n"),
        ]:
            code, out = self._run(command, toy_corpus, tmp_path, text, name)
            assert code == 0
            outputs.append({
                p.name: p.read_bytes() for p in out.iterdir() if p.name != "run.json"
            })
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", list(JSONL_INPUTS))
    @pytest.mark.parametrize(
        "bad",
        ["invalid JSON", "not an object", "wrong type", "JSON array", "JSON boolean"],
    )
    def test_bad_record_is_data_error_naming_its_row(
        self, toy_corpus, tmp_path, capsys, command, bad
    ):
        good, wrong_type, _ = JSONL_INPUTS[command]
        bad_line = {
            "invalid JSON": '{"id": ',
            "not an object": "[1, 2]",
            "wrong type": json.dumps(wrong_type),
            "JSON array": json.dumps(JSONL_ARRAY_FIELDS[command]),
            "JSON boolean": json.dumps(JSONL_BOOLEAN_FIELDS[command]),
        }[bad]
        text = f"{json.dumps(good[0])}\n\n{bad_line}\n{json.dumps(good[1])}\n"
        code, out = self._run(command, toy_corpus, tmp_path, text, "bad")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("corpusforge: data error: ")
        assert "bad.jsonl: row 3: " in err
        if bad.startswith("JSON ") and command != "concat":
            assert f"must be a string or number, got a {bad}" in err
        assert not (out / "run.json").exists()

    def test_null_pair_id_falls_back_to_line_number(self, toy_corpus, tmp_path):
        pairs = [{"id": None, "reference": "der hund", "hypothesis": "der hund"},
                 {"reference": "die katze", "hypothesis": "die kaze"}]
        text = "".join(json.dumps(p) + "\n" for p in pairs)
        code, out = self._run("eval", toy_corpus, tmp_path, text, "null")
        assert code == 0
        report = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))
        assert [p["id"] for p in report["pairs"]] == ["1", "2"]


def _select(lexicon="lexicon.tsv", corpus="corpus.txt", weights="weights.json"):
    return lambda root: ["select", "--lexicon", root / lexicon, "--corpus", root / corpus,
                         "--k", 2, "--k-prime", 1, "--weights", root / weights]


def _jsonl_input(command):
    records, _, argv = JSONL_INPUTS[command]
    text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    return text.encode(), lambda root: argv(root / "input.jsonl", root)


# Per text input: its file name and content (None: the toy corpus's file),
# and the arguments that run a command reading it from the toy corpus root.
TEXT_INPUTS = {
    "lexicon": ("lexicon.tsv", None, _select()),
    "corpus": ("corpus.txt", None, _select()),
    "weights": ("weights.json", None, _select()),
    "report words": ("corpus.txt", None, lambda root: [
        "report", "--lexicon", root / "lexicon.tsv", "--words", root / "corpus.txt"]),
    "sentences": ("sentences.txt", None, lambda root: [
        "rechain", "manual", "--manifest", root / "manifest.csv",
        "--sentences", root / "sentences.txt"]),
    "csv manifest": ("manifest.csv", None, lambda root: [
        "split", "--manifest", root / "manifest.csv", "--policy", "strict",
        "--ratio", 0.5, "--seed", 1]),
    "jsonl manifest": ("input.jsonl", *_jsonl_input("split")),
    "plan": ("input.jsonl", *_jsonl_input("concat")),
    "pairs": ("input.jsonl", *_jsonl_input("eval")),
}


@pytest.mark.parametrize("name", list(TEXT_INPUTS))
def test_input_that_is_not_utf8_is_data_error_naming_it(
    toy_corpus, tmp_path, capsys, name
):
    file_name, content, argv = TEXT_INPUTS[name]
    path = toy_corpus / file_name
    if content is not None:
        path.write_bytes(content)
    assert run_cli(*argv(toy_corpus), "--out-dir", tmp_path / "good") == 0
    # A Latin-1 "ä" at the start of line 2, after a CR-only line end.
    first_line = path.read_bytes().partition(b"\n")
    path.write_bytes(first_line[0] + b"\r\xe4" + first_line[2])
    capsys.readouterr()
    out = tmp_path / "bad"
    assert run_cli(*argv(toy_corpus), "--out-dir", out) == 2
    assert capsys.readouterr().err == (
        f"corpusforge: data error: {path}: line 2: not UTF-8 text (byte 0xe4)\n"
    )
    assert not (out / "run.json").exists()


LLM_CONFIG = {
    "endpoint_url": "http://127.0.0.1:1/generate",
    "model_name": "stub",
    "prompt_template": "{count} sentences from: {words}",
}


@pytest.mark.parametrize(
    "content, message",
    [
        (b"[1, 2]", "expected a JSON object"),
        (json.dumps({**LLM_CONFIG, "model_name": "m\u00e4"}, ensure_ascii=False)
         .encode("latin-1"), "line 1: not UTF-8 text (byte 0xe4)"),
        *[
            (json.dumps({**LLM_CONFIG, key: value}).encode(), f"{key} must be a string")
            for key, value in [
                ("prompt_template", 5), ("endpoint_url", ["http://x/"]),
                ("model_name", 1.5), ("response_text_path", None),
            ]
        ],
        (json.dumps({**LLM_CONFIG, "prompt_template": "{words} {count} {other}"})
         .encode(), "KeyError: 'other'"),
        (json.dumps({**LLM_CONFIG, "endpoint_url": "file:///etc/passwd"})
         .encode(), "must be an http(s) URL"),
    ],
    ids=["not-object", "not-utf8", "template", "endpoint", "model", "text-path",
         "template-field", "endpoint-scheme"],
)
def test_bad_llm_config_is_usage_error(toy_corpus, tmp_path, capsys, content, message):
    llm_config = tmp_path / "llm.json"
    llm_config.write_bytes(content)
    out = tmp_path / "plans"
    code = run_cli(
        "rechain", "llm",
        "--manifest", toy_corpus / "manifest.csv",
        "--llm-config", llm_config,
        "--count", 1,
        "--out-dir", out,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"corpusforge: error: {llm_config}: ")
    assert message in err
    assert not (out / "run.json").exists()


# The option files, as TEXT_INPUTS gives the data inputs; {url} stands for
# the stub server's endpoint.
OPTION_FILES = {
    "config": ("cfg.json", json.dumps({"train_ratio": 0.5}).encode(), lambda root: [
        "split", "--manifest", root / "manifest.csv", "--policy", "strict",
        "--seed", 1, "--config", root / "cfg.json"]),
    "llm.json": ("llm.json", json.dumps({**LLM_CONFIG, "endpoint_url": "{url}"}).encode(),
                 lambda root: ["rechain", "llm", "--manifest", root / "manifest.csv",
                               "--llm-config", root / "llm.json", "--count", 2]),
}


@pytest.mark.parametrize("name", [*TEXT_INPUTS, *OPTION_FILES])
def test_byte_order_mark_is_skipped_on_every_input(
    toy_corpus, tmp_path, monkeypatch, name
):
    monkeypatch.setenv("CORPUSFORGE_LLM_KEY", "k")
    file_name, content, argv = {**TEXT_INPUTS, **OPTION_FILES}[name]
    path = toy_corpus / file_name
    outputs = []
    with stub_server([(200, {"text": "der hund bellt\nkatze tanzt"})]) as srv:
        plain = path.read_bytes() if content is None else content
        for label, mark in [("plain", b""), ("bom", b"\xef\xbb\xbf")]:
            path.write_bytes(mark + plain.replace(b"{url}", srv.url.encode()))
            out = tmp_path / label
            assert run_cli(*argv(toy_corpus), "--out-dir", out) == 0
            outputs.append({
                p.name: p.read_bytes() for p in out.iterdir() if p.name != "run.json"
            })
    assert outputs[0] == outputs[1]


class TestReportCommand:
    def test_coverage_of_word_list(self, toy_corpus, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("hund\nbellt\n")
        out = tmp_path / "report"
        code = run_cli(
            "report",
            "--lexicon", toy_corpus / "lexicon.tsv",
            "--words", words,
            "--out-dir", out,
        )
        assert code == 0
        report = read_json(out / "coverage_report.json")
        assert report["word_count"] == 2
        assert report["distinct_biphones"] == 6


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run_cli() == 1

    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate") == 1

    def test_bad_flag_value_is_usage_error(self, toy_corpus):
        assert run_cli("split", "--ratio", "not-a-number") == 1


class TestParser:
    """main() adds options only for the invoked path; nothing else may show."""

    def test_top_level_help_lists_every_command(self, capsys):
        assert run_cli("--help") == 0
        flat = " ".join(capsys.readouterr().out.split())
        for path, (help_text, _) in COMMANDS.items():
            if " " not in path:
                assert f" {path} {help_text} " in flat
        assert " rechain build sentence plans from recorded words " in flat

    @pytest.mark.parametrize("path", list(COMMANDS))
    def test_path_help_shows_every_flag(self, capsys, path):
        assert run_cli(*path.split(), "--help") == 0
        out = capsys.readouterr().out
        flat = " ".join(out.split())
        for opt in (*COMMANDS[path][1], OUT_DIR):
            assert f"{opt.flag} " in out
            assert f"{opt.help} (config: {opt.config_key}" in flat
        assert "--config CONFIG" in out
        # The same text as from the parser with every path's options.
        with pytest.raises(SystemExit):
            build_parser().parse_args([*path.split(), "--help"])
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("path", list(COMMANDS))
    def test_path_parses_like_the_full_parser(self, path):
        argv = [*path.split(), "--out-dir", "o", "--config", "c.json"]
        for opt in COMMANDS[path][1]:
            argv += [opt.flag, opt.choices[0] if opt.choices else "1"]
        full = build_parser().parse_args(argv)
        assert vars(build_parser(argv).parse_args(argv)) == vars(full)
        assert full.func.__name__ == f"cmd_{path.split()[0]}"

    def test_only_the_named_path_gets_options(self, capsys):
        with pytest.raises(SystemExit):
            build_parser(["select"]).parse_args(["eval", "--pairs", "p.jsonl"])
        assert "unrecognized arguments: --pairs p.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["bogus"], ["rechain", "bogus"]])
    def test_unknown_command_or_mode_is_invalid_choice(self, capsys, argv):
        assert run_cli(*argv) == 1
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["corpusforge", "corpusforge.cli"])
def test_import_loads_only_the_standard_library(module):
    # numpy is no runtime dependency (the tests alone use it), and the HTTP
    # client is loaded only by `rechain llm`.
    heavy = ["numpy", "requests", "urllib.request", "http.client"]
    src = str(Path(corpusforge.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import {module}; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_concat_and_eval_never_load_numpy(toy_corpus, tmp_path):
    # Both fade paths of concat, and long hypotheses in both eval modes.
    words = " ".join(f"w{i}" for i in range(40))
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps(
        {"id": "p", "reference": words, "hypothesis": f"x {words} y"}
    ) + "\n")
    plan = (("der", "der.wav"), ("hund", "hund.wav"), ("der", "der.wav"))
    write_plans([SentencePlan(plan, "manual")], tmp_path / "plans.jsonl")
    runs = [
        ["concat", "--plan", tmp_path / "plans.jsonl", "--audio-root",
         toy_corpus / "audio", "--fade-ms", fade, "--out-dir", tmp_path / f"f{fade}"]
        for fade in (0, 5)
    ] + [
        ["eval", "--pairs", pairs, "--mode", mode, "--out-dir", tmp_path / mode]
        for mode in ("wer", "cer")
    ]
    runs = [[str(arg) for arg in argv] for argv in runs]
    src = str(Path(corpusforge.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import corpusforge\n"
        "from corpusforge import cli\n"
        f"codes = [cli.main(argv) for argv in {runs!r}]\n"
        "print(codes, 'numpy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"
    assert (tmp_path / "f5" / "utt_0000.wav").read_bytes() == concat_oracle(
        SentencePlan(plan, "manual"), toy_corpus / "audio", ConcatSpec(fade_ms=5)
    )


def _reads_text(call: ast.Call) -> bool:
    """Whether `call` is open() without a write mode, .read_text() or json.load()."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
        return not any(
            isinstance(m, ast.Constant) and set(str(m.value)) & set("wax") for m in modes
        )
    return isinstance(func, ast.Attribute) and (
        func.attr == "read_text"
        or (func.attr == "load" and isinstance(func.value, ast.Name)
            and func.value.id == "json")
    )


def test_input_files_are_decoded_in_one_place():
    # errors.open_text decodes every input file and jsonl.py parses every
    # JSON one; a second reader would bring back its own rules for a byte
    # order mark or a byte that is not UTF-8. read_bytes stays allowed.
    package = Path(corpusforge.__file__).parent
    readers = [
        f"{module.name}:{node.lineno}"
        for module in sorted(package.glob("*.py"))
        if module.name not in ("errors.py", "jsonl.py")
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _reads_text(node)
    ]
    assert readers == []


def test_run_json_contents(toy_corpus, tmp_path):
    out = tmp_path / "out"
    run_cli(
        "select",
        "--lexicon", toy_corpus / "lexicon.tsv",
        "--corpus", toy_corpus / "corpus.txt",
        "--k", 2,
        "--out-dir", out,
    )
    run = read_json(out / "run.json")
    assert run["tool"] == "corpusforge"
    assert run["command"] == "select"
    assert len(run["config_sha256"]) == 64
    assert set(run["input_sha256"]) == {"lexicon", "corpus"}
    assert "created_at" in run


# (config file JSON, bytes or None, argv with {toy} for the fixture, text the
# error must contain). Each check fails before any output is written.
USAGE_PROBES = {
    "config-not-an-object": (
        [1], "select --corpus {toy}/corpus.txt --k 2", "config",
    ),
    "config-not-utf8": (
        b'{"k": 2,\n\xe4}', "select --corpus {toy}/corpus.txt",
        "cfg.json: line 2: not UTF-8 text (byte 0xe4)",
    ),
    "seeds-not-an-object": (
        {"seeds": 5},
        "split --manifest {toy}/manifest.csv --policy natural --ratio 0.7",
        "seeds",
    ),
    "path-not-a-string": (
        {"lexicon_path": 5}, "report --words {toy}/corpus.txt", "lexicon_path",
    ),
    "file-is-a-directory": (
        None, "report --lexicon {toy}/audio --words {toy}/corpus.txt", "--lexicon",
    ),
    "negative-gap": (
        {"gap_ms": -5},
        "concat --plan {toy}/sentences.txt --audio-root {toy}/audio",
        "gap_ms",
    ),
    "directory-is-a-file": (
        None,
        "concat --plan {toy}/sentences.txt --audio-root {toy}/corpus.txt",
        "--audio-root",
    ),
    "ratio-above-one": (
        None, "split --manifest {toy}/manifest.csv --policy natural --seed 1"
        " --ratio 1.5", "--ratio must be a number strictly between 0 and 1",
    ),
    "ratio-nan": (
        None, "split --manifest {toy}/manifest.csv --policy natural --seed 1"
        " --ratio nan", "--ratio",
    ),
    "ratio-zero": (
        {"train_ratio": 0},
        "split --manifest {toy}/manifest.csv --policy natural --seed 1",
        "train_ratio must be a number strictly between 0 and 1, got 0",
    ),
    "out-dir-is-a-file": (
        None,
        "report --lexicon {toy}/lexicon.tsv --words {toy}/corpus.txt"
        " --out-dir {toy}/corpus.txt",
        "output_dir",
    ),
}


@pytest.mark.parametrize(
    "config, argv, key", USAGE_PROBES.values(), ids=list(USAGE_PROBES)
)
def test_bad_option_is_usage_error_naming_it(
    toy_corpus, tmp_path, capsys, config, argv, key
):
    args = [a.format(toy=toy_corpus) for a in argv.split()]
    out = tmp_path / "out"
    if "--out-dir" not in args:
        args += ["--out-dir", out]
    if config is not None:
        if not isinstance(config, bytes):
            config = json.dumps(config).encode()
        (tmp_path / "cfg.json").write_bytes(config)
        args += ["--config", tmp_path / "cfg.json"]
    assert run_cli(*args) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()
    assert (toy_corpus / "corpus.txt").is_file()


def test_unknown_config_keys_are_warned(toy_corpus, tmp_path, caplog):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "policy": "natural", "gap": 100, "k": 3,
        "seeds": {"split": 42, "spilt": 1, "rechain": 7},
    }))
    with caplog.at_level("WARNING", logger="corpusforge"):
        code = run_cli(
            "split", "--manifest", toy_corpus / "manifest.csv",
            "--config", config, "--ratio", 0.7, "--out-dir", tmp_path / "out",
        )
    assert code == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    # `k` and `seeds.rechain` belong to other commands, so they pass quietly.
    assert warnings == ["config key(s) no command reads, ignored: gap, seeds.spilt"]


def test_readme_documents_every_option():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for _, options in COMMANDS.values():
        for opt in (*options, OUT_DIR):
            assert f"`{opt.flag}`" in readme, opt.flag
            assert f"`{opt.config_key}`" in readme, opt.config_key
