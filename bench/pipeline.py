"""One benchmark pass: the corpusforge CLI pipeline run in-process, then checked.

A pass runs, through ``corpusforge.cli.main(argv)``::

    select -> rechain random -> rechain manual -> concat
           -> split strict|mixed|natural -> eval (each mode of the workload)

into a fresh out-dir with stdout/stderr sent to a null sink, timing each
command from outside. The outputs are then checked; a failed command or
check is counted, never raised, so one bad pass does not hide the others.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from corpusforge import cli

POLICIES = ("strict", "mixed", "natural")
TRAIN_RATIO = "0.8"
WAV_HEADER_BYTES = 44

# End-to-end stage metric -> the commands whose times it sums.
STAGES = {
    "select_s": ("select",),
    "rechain_s": ("rechain_random", "rechain_manual"),
    "concat_s": ("concat",),
    "split_s": tuple(f"split_{p}" for p in POLICIES),
    "eval_s": ("eval_cer", "eval_wer"),
}


def commands(inputs: Path, out: Path, meta: dict) -> list[tuple[str, list[str]]]:
    """(name, argv) of every command of one pass, in run order.

    Paths stay relative to the working directory so that ``run.json`` reads
    the same in every checkout.
    """
    s = meta["sizes"]
    seed = str(meta["seed"])
    manifest = str(inputs / "manifest.csv")
    cmds = [
        ("select", [
            "select", "--lexicon", str(inputs / "lexicon.tsv"),
            "--corpus", str(inputs / "corpus.txt"), "--k", str(s["k"]),
            "--k-prime", str(s["k_prime"]), "--weights", str(inputs / "weights.json"),
        ]),
        ("rechain_random", [
            "rechain", "random", "--manifest", manifest,
            "--count", str(s["random_plans"]), "--seed", seed,
        ]),
        ("rechain_manual", [
            "rechain", "manual", "--manifest", manifest,
            "--sentences", str(inputs / "sentences.txt"),
        ]),
        ("concat", [
            "concat", "--plan", str(out / "rechain_random" / "plans.jsonl"),
            "--audio-root", str(inputs / "audio"),
            "--gap-ms", str(s["gap_ms"]), "--fade-ms", str(s["fade_ms"]),
        ]),
    ]
    for policy in POLICIES:
        cmds.append((f"split_{policy}", [
            "split", "--manifest", manifest, "--policy", policy,
            "--ratio", TRAIN_RATIO, "--seed", seed,
        ]))
    for mode in s["eval_modes"]:
        cmds.append((f"eval_{mode}", [
            "eval", "--pairs", str(inputs / "pairs.jsonl"), "--mode", mode,
        ]))
    return [(name, argv + ["--out-dir", str(out / name)]) for name, argv in cmds]


@dataclass
class PassResult:
    times: dict[str, float]  # command name -> wall seconds
    pipeline_s: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)  # command -> sha256

    def stage(self, metric: str) -> float:
        return sum(self.times.get(name, 0.0) for name in STAGES[metric])


def run_pass(inputs: Path, out: Path, meta: dict, sink) -> PassResult:
    """Run every command once into a fresh `out`; outputs are checked later."""
    shutil.rmtree(out, ignore_errors=True)
    # Flush the deletion now, so its journal writes do not land in a timed command.
    os.sync()
    out.mkdir(parents=True)
    times: dict[str, float] = {}
    codes: dict[str, int] = {}
    total = 0.0
    for name, argv in commands(inputs, out, meta):
        # Each CLI call normally starts in a fresh interpreter: start each
        # command from a collected heap so one command's garbage is not
        # charged to the next.
        gc.collect()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                codes[name] = cli.main(argv)
            except Exception as exc:  # a traceback is a failed command
                codes[name] = repr(exc)
            elapsed = time.perf_counter() - start
        times[name] = elapsed
        total += elapsed
    result = PassResult(times=times, pipeline_s=total)
    for name, code in codes.items():
        result.attempted += 1
        if code != 0:
            result.failures.append(f"{name}: exit {code}")
    return result


def _check(result: PassResult, label: str, ok_fn) -> None:
    result.attempted += 1
    try:
        ok = ok_fn()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        result.failures.append(f"{label}: {exc!r}")
        return
    if not ok:
        result.failures.append(label)


def _read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _gbc_gains_ok(out: Path) -> bool:
    gbc = json.loads((out / "select" / "coverage.json").read_text())["gbc"]
    gains = gbc["per_step_gain"]
    return bool(gains) and min(gains) >= 1 and sum(gains) == gbc["distinct_biphones"]


def _pwps_disjoint(out: Path) -> bool:
    gbc = set(_read_lines(out / "select" / "selected_gbc.txt"))
    pwps = _read_lines(out / "select" / "selected_pwps.txt")
    return bool(pwps) and not gbc.intersection(pwps)


def _wav_lengths_ok(out: Path, meta: dict) -> bool:
    clip = meta["clip_samples"]
    gap = (meta["sizes"]["gap_ms"] * meta["sample_rate"] + 500) // 1000
    plans = [json.loads(line) for line in _read_lines(out / "rechain_random" / "plans.jsonl")]
    for index, plan in enumerate(plans):
        refs = [w["recording"] for w in plan["words"]]
        want = sum(clip[r] for r in refs) + (len(refs) - 1) * gap
        size = (out / "concat" / f"utt_{index:04d}.wav").stat().st_size
        if size != WAV_HEADER_BYTES + 2 * want:
            return False
    return len(plans) == meta["sizes"]["random_plans"]


def _no_spanning_groups(out: Path, policy: str) -> bool:
    audit = json.loads((out / f"split_{policy}" / "split_audit.json").read_text())
    return audit["spanning_group_keys"] == 0


def _pooled_is_sum(out: Path, mode: str) -> bool:
    report = json.loads((out / f"eval_{mode}" / "eval_report.json").read_text())
    keys = ("substitutions", "deletions", "insertions", "reference_length")
    return all(
        report["pooled"][k] == sum(p[k] for p in report["pairs"]) for k in keys
    )


def digest(directory: Path, data_only: bool) -> str:
    """sha256 over a command's output files, in sorted name order.

    ``run.json``'s ``created_at`` is a wall-clock stamp and is blanked.
    With `data_only`, ``run.json`` is left out: it records config and paths,
    which a refactor of the CLI may legitimately change.
    """
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.name == "run.json":
            if data_only:
                continue
            record = json.loads(data)
            record["created_at"] = ""
            data = json.dumps(record, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def check_pass(result: PassResult, out: Path, meta: dict) -> None:
    """Run every output check of one pass, recording failures in `result`."""
    modes = meta["sizes"]["eval_modes"]
    _check(result, "gbc gains >= 1 and sum to distinct_biphones", lambda: _gbc_gains_ok(out))
    _check(result, "pwps picks disjoint from gbc picks", lambda: _pwps_disjoint(out))
    _check(result, "WAV lengths = clips + gaps", lambda: _wav_lengths_ok(out, meta))
    for policy in POLICIES:
        _check(result, f"split {policy}: no spanning groups",
               lambda p=policy: _no_spanning_groups(out, p))
    for mode in modes:
        _check(result, f"eval {mode}: pooled = sum of pairs",
               lambda m=mode: _pooled_is_sum(out, m))
    for name in sorted(result.times):
        try:
            result.digests[name] = digest(out / name, data_only=False)
            result.digests[f"{name}.data"] = digest(out / name, data_only=True)
        except (OSError, ValueError) as exc:
            result.failures.append(f"{name}: cannot digest outputs: {exc!r}")

