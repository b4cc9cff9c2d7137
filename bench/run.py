"""Seeded end-to-end and per-layer benchmark of the corpusforge pipeline.

Usage (from the repository root)::

    python3 bench/run.py --workload render-manifest --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats untraced passes for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics plus the tracing overhead. Each metric is
printed as ``name value unit``; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
CACHE = Path(".bench_cache")  # generated inputs, per (workload, seed)
WORK = Path(".bench_work")  # pass outputs and span dumps
SETUP_MIN_SAMPLES = 5
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "start = time.perf_counter()\n"
    "import corpusforge.cli\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END = (
    ("pipeline_s", "s"),
    ("select_s", "s"),
    ("rechain_s", "s"),
    ("concat_s", "s"),
    ("split_s", "s"),
    ("eval_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (per-layer metric, unit, end-to-end metric it should move, on which workload)
PER_LAYER = (
    ("selector.gbc_select.s", "s", "select_s", "select-cmu"),
    ("selector.pwps_select.s", "s", "select_s", "select-cmu"),
    ("selector.pwps_score.calls", "count", "select_s", "select-cmu"),
    ("selector.pwps_score_calls_per_pick", "ratio", "select_s", "select-cmu"),
    ("selector.pool_from_lexicon.s", "s", "select_s", "select-cmu"),
    ("selector.replay_selection.s", "s", "select_s", "select-cmu"),
    ("selector.coverage_report.s", "s", "select_s", "select-cmu"),
    ("selector.pool_words", "count", "select_s", "select-cmu"),
    ("selector.gbc_picks", "count", "select_s", "select-cmu"),
    ("selector.pwps_picks", "count", "select_s", "select-cmu"),
    ("lexicon.load_lexicon.s", "s", "select_s", "select-cmu"),
    ("lexicon.entries", "count", "select_s", "select-cmu"),
    ("cli.select.self_s", "s", "select_s", "select-cmu"),
    ("dataset.load_manifest.s", "s", "rechain_s split_s", "render-manifest"),
    ("dataset.load_manifest.calls", "count", "rechain_s split_s", "render-manifest"),
    ("dataset.manifest_rows", "count", "rechain_s split_s", "render-manifest"),
    ("dataset.split.s", "s", "split_s", "render-manifest"),
    ("dataset.audit_leakage.s", "s", "split_s", "render-manifest"),
    ("dataset.write_assignment.s", "s", "split_s", "render-manifest"),
    ("dataset.groups.strict", "count", "split_s", "render-manifest"),
    ("dataset.groups.mixed", "count", "split_s", "render-manifest"),
    ("dataset.groups.natural", "count", "split_s", "render-manifest"),
    ("rechain.from_manifest.s", "s", "rechain_s", "render-manifest"),
    ("rechain.plan_random.s", "s", "rechain_s", "render-manifest"),
    ("rechain.batch_plans.s", "s", "rechain_s", "render-manifest"),
    ("rechain.write_plans.s", "s", "rechain_s", "render-manifest"),
    ("rechain.plans", "count", "rechain_s", "render-manifest"),
    ("rechain.rejected", "count", "rechain_s", "render-manifest"),
    ("cli.rechain.self_s", "s", "rechain_s", "render-manifest"),
    ("cli.split.self_s", "s", "split_s", "render-manifest"),
    ("audio.read_wav.s", "s", "concat_s", "render-manifest"),
    ("audio.read_wav.calls", "count", "concat_s", "render-manifest"),
    ("audio.distinct_clips", "count", "concat_s", "render-manifest"),
    ("audio.reads_per_distinct_clip", "ratio", "concat_s", "render-manifest"),
    ("audio.load_plan_clips.s", "s", "concat_s", "render-manifest"),
    ("audio.concat.s", "s", "concat_s", "render-manifest"),
    ("audio.write_wav.s", "s", "concat_s", "render-manifest"),
    ("audio.samples_written", "count", "concat_s", "render-manifest"),
    ("audio.bytes_read", "bytes", "concat_s", "render-manifest"),
    ("rechain.read_plans.s", "s", "concat_s", "render-manifest"),
    ("cli.concat.self_s", "s", "concat_s", "render-manifest"),
    ("metrics.edit_counts.s", "s", "eval_s", "eval-long"),
    ("metrics.edit_counts.calls", "count", "eval_s", "eval-long"),
    ("metrics.edit_counts_per_pair", "ratio", "eval_s", "eval-long"),
    ("metrics.dp_cells", "count", "eval_s", "eval-long"),
    ("metrics.edit_rate.s", "s", "eval_s", "eval-long"),
    ("metrics.corpus_rate.s", "s", "eval_s", "eval-long"),
    ("metrics.normalize.s", "s", "eval_s", "eval-long"),
    ("cli.eval.self_s", "s", "eval_s", "eval-long"),
    ("trace.overhead_s", "s", "pipeline_s", "all"),
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(tracer, pass_id: int, meta: dict) -> dict[str, float]:
    """Every per-layer metric of one traced pass, except the overhead."""
    self_s = tracer.self_times(pass_id)
    counts = tracer.counts[pass_id]
    values = {}
    for name, _, _, _ in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if name.endswith(".self_s"):
            values[name] = self_s.get(name.removesuffix(".self_s"), 0.0)
        elif name.endswith(".s"):
            values[name] = self_s.get(name.removesuffix(".s"), 0.0)
        else:
            values[name] = float(counts.get(name, 0))
    values["audio.distinct_clips"] = float(len(tracer.clips[pass_id]))
    values["audio.reads_per_distinct_clip"] = _ratio(
        values["audio.read_wav.calls"], values["audio.distinct_clips"]
    )
    values["selector.pwps_score_calls_per_pick"] = _ratio(
        values["selector.pwps_score.calls"], values["selector.pwps_picks"]
    )
    pairs = meta["sizes"]["eval_pairs"] * len(meta["sizes"]["eval_modes"])
    values["metrics.edit_counts_per_pair"] = _ratio(
        values["metrics.edit_counts.calls"], pairs
    )
    return values


def ensure_inputs(workload: str, seed: int) -> Path:
    """Generate inputs in a child process, so their memory is not in peak RSS."""
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
         "--seed", str(seed), "--cache", str(CACHE)],
        check=True, stdout=subprocess.DEVNULL, timeout=150,
    )
    return CACHE / f"{workload}-s{seed}"


def import_time() -> float:
    """Seconds to import corpusforge.cli in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(proc.stdout)


def check_identity(passes, workload: str, seed: int) -> tuple[int, list[str]]:
    """Outputs must be byte-identical across passes and, at the seed recorded
    in bench/expected.json, hash to the digests recorded there."""
    attempted, failures = 0, []
    first = passes[0].digests
    for index, p in enumerate(passes[1:], start=1):
        attempted += 1
        changed = sorted(k for k in first if p.digests.get(k) != first[k])
        if changed:
            failures.append(f"pass {index}: outputs differ from pass 0: {changed}")
    expected = json.loads((BENCH / "expected.json").read_text())
    if seed == expected["seed"]:
        for name, want in expected["digests"][workload].items():
            attempted += 1
            if first.get(f"{name}.data") != want:
                failures.append(f"{name}: outputs differ from bench/expected.json")
    return attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "corpusforge" / "cli.py").is_file():
        print(f"bench: no corpusforge source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import corpusforge
    import gen

    if Path(corpusforge.__file__).resolve().parent != ROOT / "src" / "corpusforge":
        print(f"bench: imported corpusforge from {corpusforge.__file__}", file=sys.stderr)
        return 2
    if args.workload not in gen.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, one of {sorted(gen.WORKLOADS)}")

    import pipeline
    from spans import Tracer

    inputs = ensure_inputs(args.workload, args.seed)
    meta = json.loads((inputs / "meta.json").read_text())
    work = WORK / f"{args.workload}-s{args.seed}"
    out = work / "out"

    tracer = Tracer() if args.trace else None
    plain, traced, setup = [], [], []
    if tracer is None:
        import_time()  # compiles the bytecode caches; not a sample
    sink = open(os.devnull, "w", encoding="utf-8")
    deadline = time.perf_counter() + args.seconds
    try:
        while not plain or time.perf_counter() < deadline:
            p = pipeline.run_pass(inputs, out, meta, sink)
            pipeline.check_pass(p, out, meta)
            plain.append(p)
            if tracer is None:
                # One import per pass spreads the set-up samples over the run.
                setup.append(import_time())
            else:
                tracer.pass_id = len(traced)
                tracer.install()
                try:
                    p = pipeline.run_pass(inputs, out, meta, sink)
                finally:
                    tracer.uninstall()
                pipeline.check_pass(p, out, meta)
                traced.append(p)
        while tracer is None and len(setup) < SETUP_MIN_SAMPLES:
            setup.append(import_time())
    finally:
        sink.close()
        shutil.rmtree(out, ignore_errors=True)

    runs = plain + traced
    attempted = sum(p.attempted for p in runs)
    failures = [f for p in runs for f in p.failures]
    n, f = check_identity(runs, args.workload, args.seed)
    attempted += n
    failures += f

    med = statistics.median
    if tracer is None:
        values = {
            "pipeline_s": med(p.pipeline_s for p in plain),
            **{m: med(p.stage(m) for p in plain) for m in pipeline.STAGES},
            "setup_s": med(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        samples = len(plain)
    else:
        per_pass = [layer_values(tracer, i, meta) for i in range(len(traced))]
        values = {k: med(v[k] for v in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = (
            med(p.pipeline_s for p in traced) - med(p.pipeline_s for p in plain)
        )
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        samples = len(traced)
        tracer.dump(work / "spans.tsv")

    print(f"workload {args.workload} seed {args.seed}: median of {samples} passes"
          + ("" if tracer else f", setup median of {len(setup)} imports"))
    for name, value in values.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    print(f"{'error_rate':40s} {_ratio(len(failures), attempted):14.6f} ratio"
          f" ({len(failures)} of {attempted})")
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
