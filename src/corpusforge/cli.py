"""Pipeline command-line interface.

Subcommands cover the whole corpus-personalization workflow::

    corpusforge select   --lexicon L.tsv --corpus words.txt --k 40 \\
                         --k-prime 10 --weights w.json --out-dir out/
    corpusforge rechain  {manual|llm|random} --manifest m.csv ... --out-dir out/
    corpusforge concat   --plan plans.jsonl --audio-root rec/ --out-dir out/
    corpusforge split    --manifest m.csv --policy natural --ratio 0.8 --seed 42 ...
    corpusforge eval     --pairs pairs.jsonl --mode cer --out-dir out/
    corpusforge report   --lexicon L.tsv --words selected.txt --out-dir out/

Every option is declared once, in :data:`COMMANDS`. The parser takes its
flags from there, and one resolver checks every value: flag first, then
the JSON ``--config``, then the default. :func:`main` owns each run: it
checks the options and creates the out-dir, the ``cmd_*`` handler writes
the outputs, and only then ``run.json`` records the tool version, config
and its hash, seeds and input digests. Identical config plus seeds give
byte-identical outputs. Exit codes: 0 ok, 1 usage, 2 data, 3 service error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import logging
import random
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple, Sequence

from . import __version__
from .audio import ConcatSpec, render, write_wav
from .dataset import (
    POLICIES,
    audit_leakage,
    load_manifest,
    split,
    write_assignment,
)
from .errors import CorpusForgeError, open_text, strict_int
from .jsonl import NON_TEXT_KINDS, read_json_object, read_jsonl, write_jsonl
from .lexicon import load_lexicon
from .llmclient import (
    LlmClientError,
    LlmConfigError,
    generate_validated_plans,
    load_request,
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


class Option(NamedTuple):
    """One option of a command path.

    `name` is its key in run.json's ``config``, and in the config file
    unless `key` differs. A ``seeds.<x>`` key is read from the config's
    ``seeds`` object and recorded in run.json's ``seeds`` as ``x``. Kinds:
    ``file`` and ``dir`` must exist as such, ``out`` is created once every
    option has passed; ``int``, ``float`` and ``choice`` are values, a
    ``float`` being a fraction strictly between 0 and 1.
    """

    flag: str
    name: str
    kind: str
    help: str
    required: bool = True
    default: object = None
    minimum: int | None = None
    choices: tuple[str, ...] = ()
    key: str = ""
    together: str = ""  # an earlier option to be given exactly when this one is

    @property
    def config_key(self) -> str:
        return self.key or self.name


LEXICON = Option("--lexicon", "lexicon_path", "file", "pronunciation lexicon TSV")
MANIFEST = Option("--manifest", "manifest_path", "file", "recording manifest CSV/JSONL")
OUT_DIR = Option("--out-dir", "output_dir", "out", "directory for outputs and run.json")

# Command path -> (help, options); every path also takes OUT_DIR.
COMMANDS: dict[str, tuple[str, tuple[Option, ...]]] = {
    "select": ("pick recording words", (
        LEXICON,
        Option("--corpus", "corpus_path", "file", "candidate words, one per line"),
        Option("--k", "k", "int", "coverage-stage word budget", minimum=1),
        Option("--k-prime", "k_prime", "int", "weighted-stage word budget",
               required=False, minimum=1),
        Option("--weights", "weights_path", "file", "JSON of target phoneme weights",
               required=False, together="k_prime"),
    )),
    "rechain manual": ("plans from a sentence file", (
        MANIFEST,
        Option("--sentences", "sentences_path", "file", "sentences, one per line"),
    )),
    "rechain llm": ("plans from a text-generation service", (
        MANIFEST,
        Option("--llm-config", "llm_config_path", "file", "client config JSON"),
        Option("--count", "count", "int", "sentences to request", minimum=1,
               key="sentence_count"),
    )),
    "rechain random": ("seeded random plans", (
        MANIFEST,
        Option("--count", "count", "int", "plans to draw", minimum=1, key="plan_count"),
        Option("--m", "m", "int", "fixed words per plan, else 3..8 drawn per plan",
               required=False, minimum=1),
        Option("--seed", "seed", "int", "RNG seed", key="seeds.rechain"),
    )),
    "concat": ("render sentence plans to WAV", (
        Option("--plan", "plan_path", "file", "plans JSONL from rechain"),
        Option("--audio-root", "audio_root", "dir", "directory of word recordings"),
        Option("--gap-ms", "gap_ms", "int", "inter-word silence", required=False,
               default=150, minimum=0),
        Option("--fade-ms", "fade_ms", "int", "per-edge linear fade", required=False,
               default=0, minimum=0),
    )),
    "split": ("train/test split a manifest", (
        MANIFEST,
        Option("--policy", "policy", "choice", "grouping policy", choices=POLICIES),
        Option("--ratio", "train_ratio", "float", "train entry fraction in (0,1)"),
        Option("--seed", "seed", "int", "shuffle seed", key="seeds.split"),
    )),
    "eval": ("score reference/hypothesis pairs", (
        Option("--pairs", "pairs_path", "file", "JSONL of id, reference, hypothesis"),
        Option("--mode", "mode", "choice", "word or character error rate",
               choices=("wer", "cer")),
    )),
    "report": ("coverage stats of a word list", (
        LEXICON,
        Option("--words", "words_path", "file", "word list, one per line"),
    )),
}


# Every key a config may hold; a `seeds.<x>` key is `x` in the `seeds` object.
_CONFIG_KEYS = frozenset(
    opt.config_key for _, options in COMMANDS.values() for opt in (*options, OUT_DIR)
)


class _Run:
    """A command path's checked options, in the form run.json records them."""

    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = config
        self.seeds: dict = {}
        self.inputs: dict[str, Path] = {}  # file options given

    @property
    def out_dir(self) -> Path:
        return Path(self.config[OUT_DIR.name])


def _load_config(value) -> dict:
    if value is None:
        return {}
    path = Path(value)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        return read_json_object(path, UsageError)
    except UsageError as exc:
        raise UsageError(f"config {exc}") from None


def _warn_unknown_keys(config: dict) -> None:
    """Name the keys no command reads; one config may serve several commands."""
    keys = [key for key in config if key != "seeds"]
    if isinstance(config.get("seeds"), dict):
        keys += [f"seeds.{key}" for key in config["seeds"]]
    unknown = [key for key in keys if key not in _CONFIG_KEYS]
    if unknown:
        logger.warning(
            "config key(s) no command reads, ignored: %s", ", ".join(unknown)
        )


def _config_value(config: dict, key: str):
    section, _, leaf = key.rpartition(".")
    if section:
        config = config.get(section)
        if config is None:
            return None
        if not isinstance(config, dict):
            raise UsageError(
                f"config {section!r} must be a JSON object, got {config!r}"
            )
    return config.get(leaf)


def _int_value(value, name: str, minimum: int | None = None) -> int:
    try:
        number = strict_int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise UsageError(f"{name} must be >= {minimum}, got {number}")
    return number


def _checked(opt: Option, value, label: str):
    """`value` converted to the option's kind; `label` names its source."""
    if opt.kind == "int":
        return _int_value(value, label, opt.minimum)
    if opt.kind == "float":
        try:
            # float() would take a config's true as 1.0.
            number = None if isinstance(value, bool) else float(value)
        except (TypeError, ValueError):
            number = None
        if number is None or not 0 < number < 1:  # nan fails the range too
            raise UsageError(
                f"{label} must be a number strictly between 0 and 1, got {value!r}"
            )
        return number
    if opt.kind == "choice":
        if value not in opt.choices:
            raise UsageError(f"{label} must be one of {opt.choices}, got {value!r}")
        return value
    if not isinstance(value, str):
        raise UsageError(f"{label} must be a path, got {value!r}")
    path = Path(value)
    if opt.kind == "file" and not path.is_file():
        raise UsageError(f"{label} must be an existing file: {path}")
    if opt.kind == "dir" and not path.is_dir():
        raise UsageError(f"{label} must be an existing directory: {path}")
    return path


def _prepare(args) -> _Run:
    """Check every option of the command path, then create the out-dir."""
    config = _load_config(args.config)
    _warn_unknown_keys(config)
    mode = args.path.partition(" ")[2]
    # A rechain mode is part of the command path and recorded as `mode`.
    run = _Run(args.path, {"mode": mode} if mode else {})
    for opt in (*COMMANDS[args.path][1], OUT_DIR):
        value, label = getattr(args, opt.name), opt.flag
        if value is None:
            value, label = _config_value(config, opt.config_key), opt.config_key
        if value is None and opt.required:
            raise UsageError(
                f"missing value: give {opt.flag} or {opt.config_key!r} in the config"
            )
        value = opt.default if value is None else _checked(opt, value, label)
        if opt.together and (value is None) != (run.config[opt.together] is None):
            raise UsageError(f"{opt.together} and {opt.name} must be given together")
        if opt.config_key.startswith("seeds."):
            run.seeds[opt.config_key.removeprefix("seeds.")] = value
            continue
        run.config[opt.name] = str(value) if isinstance(value, Path) else value
        if opt.kind == "file" and value is not None:
            run.inputs[opt.name.removesuffix("_path")] = value
    try:
        run.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output_dir: {exc}") from None
    return run


def _write_json(path: Path, payload: dict) -> str:
    """Write `payload` as indented JSON; return the text without its newline."""
    text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)
    path.write_text(text + "\n", encoding="utf-8")
    return text


def _write_run_manifest(run: _Run) -> None:
    canonical = json.dumps(run.config, sort_keys=True, ensure_ascii=False)
    _write_json(
        run.out_dir / "run.json",
        {
            "tool": "corpusforge",
            "version": __version__,
            "command": run.command,
            "config": run.config,
            "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
            "seeds": run.seeds,
            "input_sha256": {
                name: hashlib.sha256(p.read_bytes()).hexdigest()
                for name, p in run.inputs.items()
            },
            "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    )


def _listed_pool(run: _Run, name: str, what: str):
    """The word list `name` as read, and its pool and OOV words over the lexicon."""
    lexicon = load_lexicon(run.inputs["lexicon"])
    with open_text(run.inputs[name]) as f:
        words = [w for w in map(str.strip, f) if w and not w.startswith("#")]
    pool, skipped = pool_from_lexicon(words, lexicon)
    if not len(pool):
        raise CorpusForgeError(f"every {what} is missing from the lexicon")
    if skipped:
        logger.warning("%d %s(s) not in the lexicon, skipped", len(skipped), what)
    return words, pool, skipped


def cmd_select(run: _Run) -> None:
    out_dir = run.out_dir
    _, pool, skipped = _listed_pool(run, "corpus", "corpus word")

    gbc_state = gbc_select(pool, run.config["k"])
    gbc_words = gbc_state.selected_words
    pwps_words: list[str] = []
    pwps_state = None
    if run.config["k_prime"] is not None:
        weights = PhonemeWeights.from_json(run.inputs["weights"])
        picked = set(gbc_words)
        remainder = CandidatePool(
            tuple(c for c in pool.words if c.word not in picked)
        )
        if len(remainder):
            pwps_state = pwps_select(
                remainder, run.config["k_prime"], weights, gbc_state
            )
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
            "gbc": asdict(coverage_report(gbc_state)),
            "pwps": asdict(coverage_report(pwps_state)) if pwps_state else None,
            "combined": asdict(coverage_report(combined)),
            "oov_skipped": len(skipped),
        },
    )


def cmd_rechain(run: _Run) -> None:
    inventory = WordInventory.from_manifest(load_manifest(run.inputs["manifest"]))

    rejected: list[tuple[str, list[str]]] = []
    if run.config["mode"] == "manual":
        with open_text(run.inputs["sentences"]) as f:
            sentences = [line.strip() for line in f if line.strip()]
        plans, rejected = batch_plans(sentences, inventory, provenance="manual")
    elif run.config["mode"] == "llm":
        request = load_request(
            run.inputs["llm_config"], tuple(inventory.items), run.config["count"]
        )
        plans, rejected = generate_validated_plans(request, inventory)
    else:  # random
        m = run.config["m"]
        master = random.Random(run.seeds["rechain"])
        plans = []
        for _ in range(run.config["count"]):
            # Draw order is fixed: length first, then the per-plan seed.
            length = m if m is not None else master.randint(3, 8)
            plans.append(plan_random(inventory, length, master.getrandbits(32)))

    write_plans(plans, run.out_dir / "plans.jsonl")
    write_jsonl(
        run.out_dir / "rejected.jsonl",
        ({"sentence": sentence, "missing": missing} for sentence, missing in rejected),
    )
    if rejected:
        logger.warning("%d sentence(s) rejected, see rejected.jsonl", len(rejected))


def cmd_concat(run: _Run) -> None:
    out_dir = run.out_dir
    spec = ConcatSpec(gap_ms=run.config["gap_ms"], fade_ms=run.config["fade_ms"])
    audio_root = Path(run.config["audio_root"])

    plans = read_plans(run.inputs["plan"])
    records = []
    for index, (plan, clip) in enumerate(zip(plans, render(plans, audio_root, spec))):
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
    write_jsonl(out_dir / "concat_manifest.jsonl", records)


def cmd_split(run: _Run) -> None:
    manifest = load_manifest(run.inputs["manifest"])
    assignment = split(
        manifest, run.config["policy"], run.config["train_ratio"], run.seeds["split"]
    )
    audit = audit_leakage(manifest, assignment)
    write_assignment(assignment, run.out_dir / "split_assignment.jsonl")
    _write_json(
        run.out_dir / "split_audit.json",
        {
            "seed": assignment.seed,
            "train_ratio": assignment.train_ratio,
            **asdict(audit),
            "group_sides": assignment.group_key_audit,
        },
    )


def cmd_eval(run: _Run) -> None:
    pairs_path = run.inputs["pairs"]
    mode = run.config["mode"]
    token_mode = {"wer": "word", "cer": "char"}[mode]

    ids: list[str] = []
    pairs: list[EvalPair] = []
    for lineno, record in read_jsonl(pairs_path, CorpusForgeError):
        pair = EvalPair(record.get("reference"), record.get("hypothesis"))
        if not (isinstance(pair.reference, str) and isinstance(pair.hypothesis, str)):
            raise CorpusForgeError(
                f"{pairs_path}: row {lineno}: reference and hypothesis must be strings"
            )
        pair_id = record.get("id")
        if pair_id is None:
            pair_id = lineno
        kind = NON_TEXT_KINDS.get(type(pair_id))
        if kind:
            raise CorpusForgeError(
                f"{pairs_path}: row {lineno}: id must be a string or number, "
                f"got a JSON {kind}"
            )
        ids.append(str(pair_id))
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

    report = {"mode": mode, "pairs": per_pair, "pooled": pooled.to_dict()}
    print(_write_json(run.out_dir / "eval_report.json", report))


def cmd_report(run: _Run) -> None:
    words, pool, skipped = _listed_pool(run, "words", "listed word")
    # Replay in file order, not pool order.
    pool_words = {c.word for c in pool.words}
    ordered = [
        w
        for w in dict.fromkeys(normalize_word(x) for x in words)
        if w in pool_words
    ]
    state = replay_selection(pool, ordered)
    report = asdict(coverage_report(state))
    report["oov_skipped"] = len(skipped)
    print(_write_json(run.out_dir / "coverage_report.json", report))


def _command_path(argv: Sequence[str]) -> str | None:
    """The command path `argv` names, or None.

    Neither the top-level nor the ``rechain`` parser has an option that
    takes a value, so argparse takes the first token that does not start
    with ``-`` as the command and the next one as the rechain mode. Where
    it reads a token this skips (``-``, ``-5``), the command is an invalid
    choice either way.
    """
    words = [arg for arg in argv if not arg.startswith("-")]
    for path in (" ".join(words[:2]), " ".join(words[:1])):
        if path in COMMANDS:
            return path
    return None


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The CLI parser; given `argv`, only the path it names gets options.

    Every command and rechain mode is listed either way, so usage, help and
    "invalid choice" read the same. Adding every path's options costs about
    1 ms, which each command would pay before it starts.
    """
    parser = _Parser(prog="corpusforge", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"corpusforge {__version__}"
    )
    only = None if argv is None else _command_path(argv)

    def add(p: argparse.ArgumentParser, opt: Option) -> None:
        default = "" if opt.default is None else f", default {opt.default}"
        p.add_argument(
            opt.flag,
            dest=opt.name,
            choices=opt.choices or None,
            help=f"{opt.help} (config: {opt.config_key}{default})",
        )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config supplying default values")
    add(common, OUT_DIR)
    sub = parser.add_subparsers(dest="command", required=True)
    modes = None
    for path, (help_text, options) in COMMANDS.items():
        command, _, mode = path.partition(" ")
        if mode and modes is None:
            modes = sub.add_parser(
                command, help="build sentence plans from recorded words"
            ).add_subparsers(dest="mode", required=True)
        siblings = modes if mode else sub
        if argv is not None and path != only:
            # Only listed: argparse never runs a path argv does not name.
            siblings.add_parser(mode or command, help=help_text, add_help=False)
            continue
        p = siblings.add_parser(mode or command, parents=[common], help=help_text)
        for opt in options:
            add(p, opt)
        # cmd_<command> is looked up per parser, so a wrapper set on the
        # module attribute is what runs.
        p.set_defaults(func=globals()[f"cmd_{command}"], path=path)
    return parser


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        run = _prepare(args)
        args.func(run)
        _write_run_manifest(run)
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
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
