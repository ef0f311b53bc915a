"""In-memory span tracer wrapped around crossingsim's public functions.

The wrappers live here, in the benchmark, not in the package: installing
them replaces each traced function or method on every name it is looked
up by at call time, and uninstalling puts the originals back, so untraced
operations run the package exactly as shipped.

A span is (name, start, end, parent, run_id). Spans are kept in a list
while the run goes on and written out once at the end. A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the parent span in Tracer.spans
    run_id: str


# Called with (tracer, args, result) after a traced call returns.
Hook = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counters: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _traced(self, fn: Callable, name: Optional[str], hook: Optional[Hook]) -> Callable:
        """Wrap ``fn`` in a span called ``name``; with no name, only run the hook."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        if name is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(self, args, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children see their parent
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.run_id)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of its own (used for whole operations)."""
        return self._traced(fn, name, None)(*args, **kwargs)

    # -- installing --------------------------------------------------------

    def wrap_function(
        self, fn: Callable, name: str, modules, hook: Optional[Hook] = None
    ) -> None:
        """Replace ``fn`` on every module attribute bound to it.

        Modules that import a function by name hold their own reference,
        so wrapping only the defining module would miss their calls.
        """
        traced = self._traced(fn, name, hook)
        bound = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, traced)
                    bound += 1
        if not bound:
            raise LookupError(f"no module binds {name}")

    def wrap_method(
        self, cls: type, attr: str, name: Optional[str], hook: Optional[Hook] = None
    ) -> None:
        """Replace a method (plain or classmethod) on its class."""
        original = inspect.getattr_static(cls, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._traced(original.__func__, name, hook))
        else:
            replacement = self._traced(original, name, hook)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        if self._stack or None in self.spans:
            raise RuntimeError("spans still open")
        return self.spans

    def self_times(self) -> list[float]:
        """Self time of each span: duration minus the union of its children."""
        spans = self.finished_spans()
        children: dict[int, list[tuple[float, float]]] = {}
        for span in spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out = []
        for index, span in enumerate(spans):
            covered = 0.0
            reach = span.start
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span.end - span.start - covered)
        return out

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        totals: dict[str, dict[str, float]] = {}
        for span, own in zip(self.finished_spans(), self.self_times()):
            entry = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += own
        return totals

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        spans = self.finished_spans()
        origin = spans[0].start if spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": span.parent,
                    "run_id": span.run_id,
                }
                handle.write(json.dumps(record) + "\n")
