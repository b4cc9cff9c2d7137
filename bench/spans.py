"""Span tracing of corpusforge layers from outside the package.

:class:`Tracer` replaces module attributes with timing wrappers, so nothing
under ``src/`` changes. It wraps every function ``corpusforge.cli`` imported
from a layer module (in ``cli``'s namespace and in the defining module, so
the library's internal calls through that name are seen too), the ``cmd_*``
handlers, ``WordInventory.from_manifest`` and the inner kernels
``audio.read_wav``, ``metrics.edit_counts`` and ``metrics.normalize``.
``selector.pwps_score`` runs hundreds of thousands of times per pass, so it
is counted but not timed; its time stays in ``pwps_select``'s self time.

Spans (name, start, end, parent, pass id) are kept in memory and written out
by :meth:`Tracer.dump`. Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("lexicon", "selector", "rechain", "dataset", "audio", "metrics")
EXTRA_SPANS = (
    ("audio", "read_wav"),
    ("metrics", "edit_counts"),
    ("metrics", "normalize"),
)
COUNTED = (("selector", "pwps_score"),)


def _observe(name: str, args: tuple, result, counts: Counter, clips: set) -> None:
    """Per-layer counts taken at the boundary of a finished call."""
    if name == "lexicon.load_lexicon":
        counts["lexicon.entries"] += len(result)
    elif name == "selector.pool_from_lexicon":
        counts["selector.pool_words"] += len(result[0])
    elif name == "selector.gbc_select":
        counts["selector.gbc_picks"] += len(result.selected)
    elif name == "selector.pwps_select":
        counts["selector.pwps_picks"] += len(result.selected)
    elif name == "dataset.load_manifest":
        counts["dataset.manifest_rows"] += len(result)
    elif name == "dataset.split":
        counts[f"dataset.groups.{result.policy}"] += len(result.group_key_audit)
    elif name == "rechain.plan_random":
        counts["rechain.plans"] += 1
    elif name == "rechain.batch_plans":
        counts["rechain.plans"] += len(result[0])
        counts["rechain.rejected"] += len(result[1])
    elif name == "audio.read_wav":
        clips.add(str(args[0]))
        counts["audio.bytes_read"] += result.samples.nbytes
    elif name == "audio.write_wav":
        counts["audio.samples_written"] += args[0].duration_samples
    elif name == "metrics.edit_counts":
        counts["metrics.dp_cells"] += (len(args[0]) + 1) * (len(args[1]) + 1)


class Tracer:
    """Installs wrappers; records spans and counts per pass while enabled."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.clips: dict[int, set[str]] = defaultdict(set)  # paths read_wav decoded
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.pass_id = -1

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot so children point at it
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, self.pass_id)
            self.counts[self.pass_id][f"{name}.calls"] += 1
            _observe(name, args, result, self.counts[self.pass_id],
                     self.clips[self.pass_id])
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.pass_id][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the layer boundaries. Names missing at this commit are skipped."""
        cli = importlib.import_module("corpusforge.cli")
        targets: list[tuple[str, str]] = []
        for attr, obj in vars(cli).items():
            if inspect.isfunction(obj):
                layer = obj.__module__.rsplit(".", 1)[-1]
                if layer in LAYERS:
                    targets.append((layer, obj.__name__))
                elif obj.__module__ == cli.__name__ and attr.startswith("cmd_"):
                    targets.append(("cli", attr))
        for layer, attr in dict.fromkeys(targets + list(EXTRA_SPANS)):
            module = importlib.import_module(f"corpusforge.{layer}")
            fn = getattr(module, attr, None)
            if not inspect.isfunction(fn):
                continue
            name = f"{layer}.{attr.removeprefix('cmd_')}"
            wrapper = self._span_wrapper(name, fn)
            self._set(module, attr, wrapper)
            if getattr(cli, attr, None) is fn:
                self._set(cli, attr, wrapper)
        for layer, attr in COUNTED:
            module = importlib.import_module(f"corpusforge.{layer}")
            fn = getattr(module, attr, None)
            if inspect.isfunction(fn):
                self._set(module, attr, self._count_wrapper(f"{layer}.{attr}", fn))
        rechain = importlib.import_module("corpusforge.rechain")
        inventory = getattr(rechain, "WordInventory", None)
        method = inspect.getattr_static(inventory, "from_manifest", None)
        if isinstance(method, classmethod):
            self._set(inventory, "from_manifest", classmethod(
                self._span_wrapper("rechain.from_manifest", method.__func__)
            ))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self, pass_id: int) -> dict[str, float]:
        """Summed self time per span name over one pass."""
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id and parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid == pass_id:
                totals[name] += end - start - child[index]
        return dict(totals)

    def dump(self, path) -> None:
        """Write every span as a tab-separated line with a header."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("index\tname\tstart\tend\tparent\tpass\n")
            for index, (name, start, end, parent, pid) in enumerate(self.spans):
                f.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{pid}\n")
