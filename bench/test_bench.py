"""Self-test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest bench/test_bench.py -q``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


def tiny(workload: str) -> gen.Sizes:
    return dataclasses.replace(
        gen.WORKLOADS[workload],
        lexicon_words=400, candidates=80, candidate_oov=3, k=10, k_prime=4,
        recorded_words=12, speakers=2, sessions=1, blocks=2, words_per_block=6,
        microphones=2, repetitions=1, random_plans=6, sentences=8, eval_pairs=5,
    )


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_a_function_of_the_seed(tmp_path, workload):
    sizes = tiny(workload)
    gen.generate(sizes, 3, tmp_path / "a")
    gen.generate(sizes, 3, tmp_path / "b")
    gen.generate(sizes, 4, tmp_path / "c")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_tiny_pass_untraced_and_traced(tmp_path, workload):
    inputs = tmp_path / "inputs"
    meta = gen.generate(tiny(workload), 5, inputs)
    meta = json.loads(json.dumps(meta))  # as run.py reads it back
    out = tmp_path / "out"
    tracer = Tracer()
    with open(os.devnull, "w", encoding="utf-8") as sink:
        plain = pipeline.run_pass(inputs, out, meta, sink)
        pipeline.check_pass(plain, out, meta)
        tracer.pass_id = 0
        tracer.install()
        try:
            traced = pipeline.run_pass(inputs, out, meta, sink)
        finally:
            tracer.uninstall()
        pipeline.check_pass(traced, out, meta)
    assert plain.failures == [] and traced.failures == []
    assert plain.digests == traced.digests
    assert set(plain.times) == {name for name, _ in pipeline.commands(inputs, out, meta)}

    values = run.layer_values(tracer, 0, meta)
    wanted = {name for name, *_ in run.PER_LAYER} - {"trace.overhead_s"}
    assert set(values) == wanted
    assert values["lexicon.entries"] == 400
    assert values["selector.gbc_picks"] == 10
    assert values["selector.pwps_picks"] == 4
    assert values["audio.distinct_clips"] > 0
    assert values["metrics.dp_cells"] > 0
    assert values["cli.select.self_s"] > 0
    # The wrappers are gone again.
    from corpusforge import cli, metrics
    assert not hasattr(cli.gbc_select, "__wrapped__")
    assert not hasattr(metrics.edit_counts, "__wrapped__")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
