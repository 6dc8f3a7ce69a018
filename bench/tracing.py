"""Span tracing of latentblendkit's public functions, from outside `src/`.

`Tracer.install()` replaces each target function (and each value type's
``__post_init__``) in every loaded ``latentblendkit`` module namespace with
a wrapper that records a span; `uninstall()` puts the originals back. A span
is (id, parent id, command id, name, start ns, end ns). Spans are kept in
memory, aggregated per name, and written out on request when the run ends.

A span's self time is its duration minus its direct children's. A group
(e.g. ``adain`` = adain + adain_rows) also counts its outermost calls only,
so nested calls of one layer are not counted twice.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


def _value_bytes(obj) -> int:
    if hasattr(obj, "data"):
        return obj.data.nbytes
    return obj.mean.nbytes + obj.std.nbytes  # ChannelStats


def _file_size(args, kwargs) -> int:
    path = kwargs.get("path", args[0] if args else None)
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module.attr``, or ``module.Class`` constructor."""

    module: str
    attr: str
    group: str
    constructor: bool = False
    # (counts, args, kwargs, result) -> None; runs after an outermost span of
    # the group closes, so nested calls of one layer are counted once
    count: Callable | None = None


def _count_values(counts, args, kwargs, result):
    counts["values_bytes"] += _value_bytes(args[0])


def _count_image_steps(counts, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    counts["image_steps"] += (cfg.n_images - 1) * cfg.schedule.steps


def _count_validated(counts, args, kwargs, result):
    es = args[0]
    counts["vectors_validated"] += len(es.generated) + len(es.references)


def _count_similarities(counts, args, kwargs, result):
    es = args[0] if args else kwargs["es"]
    counts["similarities"] += len(es.generated) * len(es.references)


def _count_load(counts, args, kwargs, result):
    counts["load_bytes"] += _file_size(args, kwargs)


def _count_write(counts, args, kwargs, result):
    counts["write_bytes"] += _file_size(args, kwargs)


def _count_folds(counts, args, kwargs, result):
    counts["folds"] += len(result.omega_trace)


def _count_descriptions(counts, args, kwargs, result):
    counts["descriptions"] += len(args[0] if args else kwargs["ds"])


PKG = "latentblendkit"

TARGETS = (
    *(
        Target(f"{PKG}.tensorcore", cls, "values", constructor=True, count=_count_values)
        for cls in ("LatentVector", "FeatureMap", "Matrix", "ChannelStats")
    ),
    Target(f"{PKG}.tensorcore", "channel_stats", "stats"),
    Target(f"{PKG}.normalization", "adain", "adain"),
    Target(f"{PKG}.normalization", "adain_rows", "adain"),
    Target(f"{PKG}.attention", "shared_attention", "shared"),
    Target(f"{PKG}.attention", "lambda_rescaled_attention", "lambda"),
    Target(f"{PKG}.sandbox", "run_sandbox", "sandbox", count=_count_image_steps),
    Target(f"{PKG}.metrics", "EmbeddingSet", "embeddingset", constructor=True, count=_count_validated),
    Target(f"{PKG}.metrics", "wms_score", "wms", count=_count_similarities),
    Target(f"{PKG}.formats", "load_array", "load", count=_count_load),
    Target(f"{PKG}.formats", "read_vectors", "load", count=_count_load),
    Target(f"{PKG}.formats", "write_vectors", "write", count=_count_write),
    Target(f"{PKG}.blending", "sli_blend", "sli", count=_count_folds),
    Target(f"{PKG}.blending", "linear_blend", "linear"),
    Target(f"{PKG}.fusion", "best_music_query", "match"),
    Target(f"{PKG}.fusion", "fuse_with_trace", "fuse", count=_count_descriptions),
)


@dataclass
class _Frame:
    span_id: int
    name: str
    group: str
    start: int
    child_ns: int = 0
    outermost: bool = True


@dataclass
class Tracer:
    keep_spans: bool = False
    spans: list = field(default_factory=list)
    # name -> [calls, total ns, self ns]
    by_name: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0, 0]))
    # group -> [outermost calls, outermost ns, self ns of every span]
    by_group: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0, 0]))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    command: int = 0
    _stack: list = field(default_factory=list)
    _depth: dict = field(default_factory=lambda: defaultdict(int))
    _next_id: int = 0
    _patched: list = field(default_factory=list)

    def reset(self, keep_spans: bool = False) -> None:
        self.keep_spans = keep_spans
        self.spans = []
        self.by_name.clear()
        self.by_group.clear()
        self.counts.clear()

    def enter(self, name: str, group: str) -> _Frame:
        self._next_id += 1
        frame = _Frame(self._next_id, name, group, 0, outermost=self._depth[group] == 0)
        self._depth[group] += 1
        self._stack.append(frame)
        frame.start = time.perf_counter_ns()
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self._depth[frame.group] -= 1
        dur = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_ns += dur
        agg = self.by_name[frame.name]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame.child_ns
        grp = self.by_group[frame.group]
        grp[2] += dur - frame.child_ns
        if frame.outermost:
            grp[0] += 1
            grp[1] += dur
        if self.keep_spans:
            self.spans.append(
                (frame.span_id, parent.span_id if parent else 0, self.command, frame.name, frame.start, end)
            )

    def _wrap(self, fn: Callable, name: str, target: Target) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name, target.group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if target.count is not None and frame.outermost:
                target.count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            return
        modules = [m for n, m in sys.modules.items() if n == PKG or n.startswith(PKG + ".")]
        for target in TARGETS:
            owner = sys.modules[target.module]
            name = f"{target.module[len(PKG) + 1:]}.{target.attr}"
            if target.constructor:
                cls = getattr(owner, target.attr)
                orig = cls.__dict__["__post_init__"]
                setattr(cls, "__post_init__", self._wrap(orig, name, target))
                self._patched.append((cls, "__post_init__", orig))
                continue
            orig = getattr(owner, target.attr)
            wrapper = self._wrap(orig, name, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    @contextmanager
    def span(self, name: str, group: str):
        """A span opened by the benchmark itself, e.g. around one CLI command."""
        frame = self.enter(name, group)
        try:
            yield
        finally:
            self.exit(frame)


def write_spans(spans: list, path) -> None:
    """One JSON object per span, in the order the spans closed."""
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, command, name, start, end in spans:
            fh.write(
                json.dumps(
                    {"id": span_id, "parent": parent, "command": command, "name": name,
                     "start_ns": start, "end_ns": end}
                )
                + "\n"
            )
