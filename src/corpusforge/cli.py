"""Pipeline command-line interface.

Subcommands cover the whole corpus-personalization workflow::

    corpusforge select   --lexicon L.tsv --corpus words.txt --k 40 \\
                         --k-prime 10 --weights w.json --out-dir out/
    corpusforge rechain  {manual|llm|random} --manifest m.csv ... --out-dir out/
    corpusforge concat   --plan plans.jsonl --audio-root rec/ --out-dir out/
    corpusforge split    --manifest m.csv --policy natural --ratio 0.8 --seed 42 ...
    corpusforge eval     --pairs pairs.jsonl --mode cer --out-dir out/
    corpusforge report   --lexicon L.tsv --words selected.txt --out-dir out/

Every value can also come from a JSON config (``--config``); flags win.
Every successful run writes ``run.json`` (tool version, effective config
and its hash, seeds, input digests) next to its outputs, and identical
config plus seeds reproduce byte-identical outputs. Exit codes: 0 ok,
1 usage, 2 data error, 3 external service error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import logging
import random
import sys
from pathlib import Path

from . import __version__
from .audio import ConcatSpec, concat, load_plan_clips, write_wav
from .dataset import (
    POLICIES,
    audit_leakage,
    load_manifest,
    split,
    write_assignment,
)
from .errors import CorpusForgeError
from .lexicon import load_lexicon
from .llmclient import (
    GenerationRequest,
    LlmClientError,
    LlmConfigError,
    generate_validated_plans,
    load_client_config,
)
from .metrics import EmptyReferenceError, EvalPair, edit_rate, pool_summaries
from .rechain import (
    WordInventory,
    batch_plans,
    plan_random,
    read_plans,
    write_plans,
)
from .selector import (
    CandidatePool,
    PhonemeWeights,
    coverage_report,
    gbc_select,
    pool_from_lexicon,
    pwps_select,
    replay_selection,
)
from .textnorm import normalize_word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SERVICE = 3

logger = logging.getLogger("corpusforge")


class UsageError(Exception):
    """Bad invocation (missing flag/config value, nonexistent input path)."""


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: Path) -> str:
    return _sha256_bytes(Path(path).read_bytes())


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    path = Path(args.config)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from None


def _resolve(flag_value, config: dict, key: str, required: bool = False):
    value = flag_value if flag_value is not None else config.get(key)
    if value is None and required:
        raise UsageError(f"missing value for {key!r} (flag or config)")
    return value


def _input_path(flag_value, config: dict, key: str, required: bool = True) -> Path | None:
    value = _resolve(flag_value, config, key, required)
    if value is None:
        return None
    path = Path(value)
    if not path.exists():
        raise UsageError(f"{key} does not exist: {path}")
    return path


def _int_value(value, name: str, minimum: int | None = None) -> int:
    try:
        # int() would take a config's 2.9 or true as 2 or 1.
        if isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError(value)
        number = int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise UsageError(f"{name} must be >= {minimum}, got {number}")
    return number


def _out_dir(args, config: dict) -> Path:
    value = _resolve(args.out_dir, config, "output_dir", required=True)
    path = Path(value)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> str:
    """Write `payload` as indented JSON; return the text without its newline."""
    text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)
    path.write_text(text + "\n", encoding="utf-8")
    return text


def _write_run_manifest(
    out_dir: Path,
    command: str,
    effective: dict,
    seeds: dict,
    inputs: dict[str, Path],
) -> None:
    canonical = json.dumps(effective, sort_keys=True, ensure_ascii=False)
    _write_json(
        out_dir / "run.json",
        {
            "tool": "corpusforge",
            "version": __version__,
            "command": command,
            "config": effective,
            "config_sha256": _sha256_bytes(canonical.encode("utf-8")),
            "seeds": seeds,
            "input_sha256": {name: _sha256_file(p) for name, p in inputs.items()},
            "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    )


def _read_word_list(path: Path) -> list[str]:
    words = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            word = line.strip()
            if word and not word.startswith("#"):
                words.append(word)
    return words


def _read_sentences(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.strip() for line in f if line.strip()]


def cmd_select(args) -> int:
    config = _load_config(args)
    lexicon_path = _input_path(args.lexicon, config, "lexicon_path")
    corpus_path = _input_path(args.corpus, config, "corpus_path")
    k = _int_value(_resolve(args.k, config, "k", required=True), "k", minimum=1)
    k_prime = _resolve(args.k_prime, config, "k_prime")
    if k_prime is not None:
        k_prime = _int_value(k_prime, "k_prime", minimum=1)
    weights_path = _input_path(args.weights, config, "weights_path", required=False)
    if (k_prime is None) != (weights_path is None):
        raise UsageError("k_prime and weights must be given together")
    out_dir = _out_dir(args, config)

    lexicon = load_lexicon(lexicon_path)
    corpus_words = _read_word_list(corpus_path)
    pool, skipped = pool_from_lexicon(corpus_words, lexicon)
    if not len(pool):
        raise CorpusForgeError("every corpus word is missing from the lexicon")
    if skipped:
        logger.warning("%d corpus word(s) not in the lexicon, skipped", len(skipped))

    gbc_state = gbc_select(pool, k)
    gbc_words = gbc_state.selected_words
    pwps_words: list[str] = []
    pwps_state = None
    if k_prime is not None:
        weights = PhonemeWeights.from_json(weights_path)
        picked = set(gbc_words)
        remainder = CandidatePool(
            tuple(c for c in pool.words if c.word not in picked)
        )
        if len(remainder):
            pwps_state = pwps_select(remainder, k_prime, weights, gbc_state)
            pwps_words = pwps_state.selected_words

    (out_dir / "selected_gbc.txt").write_text(
        "".join(w + "\n" for w in gbc_words), encoding="utf-8"
    )
    (out_dir / "selected_pwps.txt").write_text(
        "".join(w + "\n" for w in pwps_words), encoding="utf-8"
    )
    combined = replay_selection(pool, gbc_words + pwps_words)
    _write_json(
        out_dir / "coverage.json",
        {
            "gbc": coverage_report(gbc_state).to_dict(),
            "pwps": coverage_report(pwps_state).to_dict() if pwps_state else None,
            "combined": coverage_report(combined).to_dict(),
            "oov_skipped": len(skipped),
        },
    )
    effective = {
        "lexicon_path": str(lexicon_path),
        "corpus_path": str(corpus_path),
        "k": k,
        "k_prime": k_prime,
        "weights_path": None if weights_path is None else str(weights_path),
        "output_dir": str(out_dir),
    }
    inputs = {"lexicon": lexicon_path, "corpus": corpus_path}
    if weights_path is not None:
        inputs["weights"] = weights_path
    _write_run_manifest(out_dir, "select", effective, {}, inputs)
    return EXIT_OK


def cmd_rechain(args) -> int:
    config = _load_config(args)
    manifest_path = _input_path(args.manifest, config, "manifest_path")
    m = None if args.m is None else _int_value(args.m, "m", minimum=1)
    out_dir = _out_dir(args, config)
    inventory = WordInventory.from_manifest(load_manifest(manifest_path))

    seeds: dict = {}
    inputs: dict[str, Path] = {"manifest": manifest_path}
    rejected: list[tuple[str, list[str]]] = []
    count = args.count
    if args.mode == "manual":
        sentences_path = _input_path(args.sentences, config, "sentences_path")
        sentences = _read_sentences(sentences_path)
        plans, rejected = batch_plans(sentences, inventory, provenance="manual")
        inputs["sentences"] = sentences_path
    elif args.mode == "llm":
        llm_config_path = _input_path(args.llm_config, config, "llm_config_path")
        llm_config = load_client_config(llm_config_path)
        count = _int_value(
            _resolve(args.count, config, "sentence_count", required=True),
            "count",
            minimum=1,
        )
        request = GenerationRequest(
            inventory_words=tuple(inventory.items),
            sentence_count=count,
            prompt_template=llm_config["prompt_template"],
            endpoint_url=llm_config["endpoint_url"],
            model_name=llm_config["model_name"],
            response_text_path=llm_config.get("response_text_path", "text"),
        )
        plans, rejected = generate_validated_plans(request, inventory)
        inputs["llm_config"] = llm_config_path
    else:  # random
        seed = args.seed
        if seed is None:
            seed = (config.get("seeds") or {}).get("rechain")
        if seed is None:
            raise UsageError("random rechain requires --seed (no wall-clock default)")
        seed = _int_value(seed, "seed")
        count = _int_value(
            _resolve(args.count, config, "plan_count", required=True),
            "count",
            minimum=1,
        )
        master = random.Random(seed)
        plans = []
        for _ in range(count):
            # Draw order is fixed: length first, then the per-plan seed.
            length = m if m is not None else master.randint(3, 8)
            plans.append(plan_random(inventory, length, master.getrandbits(32)))
        seeds["rechain"] = seed

    write_plans(plans, out_dir / "plans.jsonl")
    with open(out_dir / "rejected.jsonl", "w", encoding="utf-8") as f:
        for sentence, missing in rejected:
            f.write(
                json.dumps(
                    {"sentence": sentence, "missing": missing}, ensure_ascii=False
                )
                + "\n"
            )
    if rejected:
        logger.warning("%d sentence(s) rejected, see rejected.jsonl", len(rejected))

    effective = {
        "mode": args.mode,
        "manifest_path": str(manifest_path),
        "count": count,
        "m": m,
        "output_dir": str(out_dir),
        **{f"{name}_path": str(p) for name, p in inputs.items() if name != "manifest"},
    }
    _write_run_manifest(out_dir, f"rechain {args.mode}", effective, seeds, inputs)
    return EXIT_OK


def cmd_concat(args) -> int:
    config = _load_config(args)
    plan_path = _input_path(args.plan, config, "plan_path")
    audio_root = _input_path(args.audio_root, config, "audio_root")
    gap_ms = _resolve(args.gap_ms, config, "gap_ms")
    fade_ms = _resolve(args.fade_ms, config, "fade_ms")
    spec = ConcatSpec(
        gap_ms=150 if gap_ms is None else _int_value(gap_ms, "gap_ms"),
        fade_ms=0 if fade_ms is None else _int_value(fade_ms, "fade_ms"),
    )
    out_dir = _out_dir(args, config)

    plans = read_plans(plan_path)
    records = []
    for index, plan in enumerate(plans):
        clip = concat(load_plan_clips(plan, audio_root), spec)
        name = f"utt_{index:04d}.wav"
        write_wav(clip, out_dir / name)
        records.append(
            {
                "audio_path": name,
                "transcript": plan.text,
                "provenance": plan.provenance,
                "seed": plan.seed,
                "source_text": plan.source_text,
                "num_samples": clip.duration_samples,
                "sample_rate": clip.sample_rate,
            }
        )
    with open(out_dir / "concat_manifest.jsonl", "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, ensure_ascii=False) + "\n")

    effective = {
        "plan_path": str(plan_path),
        "audio_root": str(audio_root),
        "gap_ms": spec.gap_ms,
        "fade_ms": spec.fade_ms,
        "output_dir": str(out_dir),
    }
    _write_run_manifest(out_dir, "concat", effective, {}, {"plan": plan_path})
    return EXIT_OK


def cmd_split(args) -> int:
    config = _load_config(args)
    manifest_path = _input_path(args.manifest, config, "manifest_path")
    policy = _resolve(args.policy, config, "policy", required=True)
    if policy not in POLICIES:
        raise UsageError(f"policy must be one of {POLICIES}, got {policy!r}")
    ratio = _resolve(args.ratio, config, "train_ratio", required=True)
    seed = args.seed
    if seed is None:
        seed = (config.get("seeds") or {}).get("split")
    if seed is None:
        raise UsageError("split requires --seed (no wall-clock default)")
    seed = _int_value(seed, "seed")
    try:
        ratio = float(ratio)
    except (TypeError, ValueError):
        raise UsageError(f"ratio must be a number, got {ratio!r}") from None
    out_dir = _out_dir(args, config)

    manifest = load_manifest(manifest_path)
    assignment = split(manifest, policy, ratio, seed)
    audit = audit_leakage(manifest, assignment)
    write_assignment(assignment, out_dir / "split_assignment.jsonl")
    _write_json(
        out_dir / "split_audit.json",
        {
            "seed": assignment.seed,
            "train_ratio": assignment.train_ratio,
            **audit.to_dict(),
            "group_sides": assignment.group_key_audit,
        },
    )
    effective = {
        "manifest_path": str(manifest_path),
        "policy": policy,
        "train_ratio": ratio,
        "output_dir": str(out_dir),
    }
    _write_run_manifest(
        out_dir, "split", effective, {"split": seed}, {"manifest": manifest_path}
    )
    return EXIT_OK


def _mode_tokens(mode: str) -> str:
    return {"wer": "word", "cer": "char"}[mode]


def cmd_eval(args) -> int:
    config = _load_config(args)
    pairs_path = _input_path(args.pairs, config, "pairs_path")
    out_dir = _out_dir(args, config)
    token_mode = _mode_tokens(args.mode)

    ids: list[str] = []
    pairs: list[EvalPair] = []
    with open(pairs_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                pair = EvalPair(
                    reference=record["reference"], hypothesis=record["hypothesis"]
                )
            except json.JSONDecodeError as exc:
                raise CorpusForgeError(
                    f"{pairs_path}: line {lineno}: invalid JSON: {exc}"
                ) from None
            except (KeyError, TypeError) as exc:
                raise CorpusForgeError(
                    f"{pairs_path}: line {lineno}: missing field {exc}"
                ) from None
            ids.append(str(record.get("id", lineno)))
            pairs.append(pair)
    if not pairs:
        raise CorpusForgeError(f"{pairs_path}: no evaluation pairs")

    per_pair = []
    summaries = []
    for pair_id, pair in zip(ids, pairs):
        try:
            summary = edit_rate(pair, token_mode)
        except EmptyReferenceError as exc:
            raise EmptyReferenceError(f"pair {pair_id!r}: {exc}") from None
        summaries.append(summary)
        per_pair.append({"id": pair_id, **summary.to_dict()})
    pooled = pool_summaries(summaries)

    report = {"mode": args.mode, "pairs": per_pair, "pooled": pooled.to_dict()}
    print(_write_json(out_dir / "eval_report.json", report))
    effective = {
        "pairs_path": str(pairs_path),
        "mode": args.mode,
        "output_dir": str(out_dir),
    }
    _write_run_manifest(out_dir, "eval", effective, {}, {"pairs": pairs_path})
    return EXIT_OK


def cmd_report(args) -> int:
    config = _load_config(args)
    lexicon_path = _input_path(args.lexicon, config, "lexicon_path")
    words_path = _input_path(args.words, config, "words_path")
    out_dir = _out_dir(args, config)

    lexicon = load_lexicon(lexicon_path)
    words = _read_word_list(words_path)
    pool, skipped = pool_from_lexicon(words, lexicon)
    if not len(pool):
        raise CorpusForgeError("every listed word is missing from the lexicon")
    if skipped:
        logger.warning("%d word(s) not in the lexicon, skipped", len(skipped))
    # Replay in file order, not pool order.
    pool_words = {c.word for c in pool.words}
    ordered = [
        w
        for w in dict.fromkeys(normalize_word(x) for x in words)
        if w in pool_words
    ]
    state = replay_selection(pool, ordered)
    report = coverage_report(state).to_dict()
    report["oov_skipped"] = len(skipped)
    print(_write_json(out_dir / "coverage_report.json", report))
    effective = {
        "lexicon_path": str(lexicon_path),
        "words_path": str(words_path),
        "output_dir": str(out_dir),
    }
    _write_run_manifest(
        out_dir,
        "report",
        effective,
        {},
        {"lexicon": lexicon_path, "words": words_path},
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corpusforge", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"corpusforge {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config supplying default values")
    common.add_argument("--out-dir", help="directory for outputs and run.json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", parents=[common], help="pick recording words")
    p.add_argument("--lexicon", help="pronunciation lexicon TSV")
    p.add_argument("--corpus", help="candidate word list, one word per line")
    p.add_argument("--k", type=int, help="coverage-stage word budget")
    p.add_argument("--k-prime", type=int, help="weighted-stage word budget")
    p.add_argument("--weights", help="JSON of target phoneme weights")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser(
        "rechain", parents=[common], help="build sentence plans from recorded words"
    )
    p.add_argument("mode", choices=("manual", "llm", "random"))
    p.add_argument("--manifest", help="recording manifest CSV/JSONL")
    p.add_argument("--sentences", help="manual mode: sentence file, one per line")
    p.add_argument("--llm-config", help="llm mode: client config JSON")
    p.add_argument("--count", type=int, help="number of sentences/plans to produce")
    p.add_argument("--m", type=int, help="random mode: fixed words per plan")
    p.add_argument("--seed", type=int, help="random mode: RNG seed (required)")
    p.set_defaults(func=cmd_rechain)

    p = sub.add_parser(
        "concat", parents=[common], help="render sentence plans to WAV"
    )
    p.add_argument("--plan", help="plans JSONL from rechain")
    p.add_argument("--audio-root", help="directory holding the word recordings")
    p.add_argument("--gap-ms", type=int, help="inter-word silence (default 150)")
    p.add_argument("--fade-ms", type=int, help="per-edge linear fade (default 0)")
    p.set_defaults(func=cmd_concat)

    p = sub.add_parser("split", parents=[common], help="train/test split a manifest")
    p.add_argument("--manifest", help="recording manifest CSV/JSONL")
    p.add_argument("--policy", choices=POLICIES)
    p.add_argument("--ratio", type=float, help="train entry fraction in (0,1)")
    p.add_argument("--seed", type=int, help="shuffle seed (required)")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("eval", parents=[common], help="score reference/hypothesis pairs")
    p.add_argument("--pairs", help="JSONL with id, reference, hypothesis")
    p.add_argument("--mode", choices=("wer", "cer"), required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", parents=[common], help="coverage stats of a word list")
    p.add_argument("--lexicon", help="pronunciation lexicon TSV")
    p.add_argument("--words", help="word list file, one per line")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, LlmConfigError) as exc:
        print(f"corpusforge: error: {exc}", file=sys.stderr)
        print("run 'corpusforge <command> --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except LlmClientError as exc:
        print(f"corpusforge: service error: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except CorpusForgeError as exc:
        print(f"corpusforge: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
