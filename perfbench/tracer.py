"""Spans and counters around the rhdepth layers, recorded from outside.

The tracer replaces the module-level names through which the layers call
each other (for example ``rhdepth.cli.fit_fpca``) with wrappers that record
a span per call, then restores them. Nothing inside ``rhdepth`` changes, so
a traced command must write the same bytes as an untraced one.

Spans are kept in memory. Each has a name ``<layer>.<what>``, a start, an
end, the span that caused it and the command it belongs to. Work handed to
``parallel_map`` gets one item span per work item whose parent is the map
span, also when the item runs on a worker thread.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    command: int
    start: float
    end: float = 0.0
    workers: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_depth(counts, args, result):
    dirs = args[0]
    rows = len(result.depths)
    counts["rhd.depth_calls"] += 1
    counts["rhd.count_cells"] += rows * result.accepted_count
    counts["rhd.accepted"] += result.accepted_count
    counts["rhd.pool"] += dirs.size
    counts["rhd.eval_rows"] += rows
    counts["rhd.min_dirs"] += sum(len(m) for m in result.minimizing_directions)


def _count_candidates(counts, args, result):
    _, candidates, projections = result
    counts["outlier.candidates"] += len(candidates)
    counts["outlier.fence_unique_dirs"] += len({m for _, m, _ in projections})


def _count_fences(counts, args, result):
    counts["outlier.fence_records"] += len(args[1])


def _count_read(counts, args, result):
    counts["io.bytes_read"] += os.path.getsize(args[0])


def _count_write(counts, args, result):
    counts["io.bytes_written"] += os.path.getsize(args[0])


# (module whose global name is replaced, name, span name, counter hook).
# A layer is reached through every module that imported the name, so one
# function can appear several times.
BINDINGS = (
    ("cli", "read_sample", "io.read_sample", _count_read),
    ("cli", "write_json", "io.write", _count_write),
    ("cli", "atomic_write_text", "io.write", _count_write),
    ("cli", "fit_fpca", "funspace.fit_fpca", None),
    ("outlier", "fit_fpca", "funspace.fit_fpca", None),
    ("evalkit", "fit_fpca", "funspace.fit_fpca", None),
    ("cli", "draw_directions", "rhd.draw_directions", None),
    ("outlier", "draw_directions", "rhd.draw_directions", None),
    ("evalkit", "draw_directions", "rhd.draw_directions", None),
    ("cli", "resolve_lambda", "rhd.resolve_lambda", None),
    ("outlier", "resolve_lambda", "rhd.resolve_lambda", None),
    ("evalkit", "resolve_lambda", "rhd.resolve_lambda", None),
    ("cli", "approximate_rhd", "rhd.approximate_rhd", None),
    ("rhd", "depth_from_scores", "rhd.depth", _count_depth),
    ("outlier", "depth_from_scores", "rhd.depth", _count_depth),
    ("cli", "calibrate_factor", "outlier.calibrate_factor", None),
    ("cli", "detect_outliers", "outlier.detect_outliers", None),
    # evalkit reaches the fences through these two private helpers.
    ("outlier", "_candidate_projections", "outlier.candidate_projections", _count_candidates),
    ("evalkit", "_candidate_projections", "outlier.candidate_projections", _count_candidates),
    ("outlier", "_apply_fences", "outlier.apply_fences", _count_fences),
    ("evalkit", "_apply_fences", "outlier.apply_fences", _count_fences),
    ("evalkit", "generate_scenario", "simlab.generate_scenario", None),
    ("cli", "roc_table", "evalkit.roc_table", None),
    ("cli", "normalized_ranks", "evalkit.normalized_ranks", None),
    ("evalkit", "detection_metrics", "evalkit.detection_metrics", None),
)

PARALLEL_BINDINGS = ("outlier", "evalkit")


class Tracer:
    """Records spans and counters while installed; not reentrant."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.command = 0
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: int | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), parent, name, self.command, time.perf_counter())
        stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _count(self, hook, args, result) -> None:
        with self._lock:
            hook(self.counts[self.command], args, result)

    def wrap(self, fn, name: str, hook=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                self._count(hook, args, result)
            return result

        return traced

    def _wrap_parallel_map(self, parallel_map):
        def traced_map(fn, items, threads=1):
            items = list(items)
            span = self._open("parallel.map")
            span.workers = min(threads, len(items)) if threads > 1 and len(items) > 1 else 1
            item_name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

            def traced_item(item):
                item_span = self._open(item_name, parent=span.id)
                try:
                    return fn(item)
                finally:
                    self._close(item_span)

            try:
                return parallel_map(traced_item, items, threads)
            finally:
                self._close(span)
                with self._lock:
                    self.counts[self.command]["parallel.items"] += len(items)

        return traced_map

    # -- patching --------------------------------------------------------

    def install(self, package) -> None:
        modules = {name: getattr(package, name) for name in ("cli", "outlier", "evalkit", "rhd")}
        for module_name, attr, span_name, hook in BINDINGS:
            module = modules[module_name]
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span_name, hook))
        for module_name in PARALLEL_BINDINGS:
            module = modules[module_name]
            if not hasattr(module, "parallel_map"):
                self.missing.append(f"{module_name}.parallel_map")
                continue
            original = module.parallel_map
            self._saved.append((module, "parallel_map", original))
            module.parallel_map = self._wrap_parallel_map(original)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict:
    """Seconds per layer not covered by a span's own children.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; a layer's self time sums that over its spans.
    Item spans on worker threads count for the layer of the item function,
    so a layer's self time is busy time and can exceed wall time.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    totals = Counter()
    for span in spans:
        cover = _covered(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.id]
            if c.end > span.start and c.start < span.end
        )
        totals[span.layer] += span.duration - cover
    return totals
