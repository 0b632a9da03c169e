"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side: `Tracer.install` replaces
public bpmnkit functions with wrappers in every bpmnkit module that holds a
reference to them, so calls between modules and recursive calls are both
seen. A span has an id, the id of the span that caused it (a contextvar
stack per thread; worker threads of a batch are adopted by the open batch
span), start and end (`perf_counter`), the thread CPU time it used, and a few
counters. Nothing is written until `write` is called at the end.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    cpu: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _holders(original) -> list[tuple[object, str]]:
    """Every (bpmnkit module, attribute) that refers to `original`."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "bpmnkit" or name.startswith("bpmnkit.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
    return found


class Patches:
    """Replaces functions or methods and puts the originals back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, name: str, make: Callable) -> None:
        original = getattr(module, name)
        holders = _holders(original)
        if not holders:
            raise LookupError(f"{module.__name__}.{name} is referenced by no bpmnkit module")
        replacement = make(original)
        for holder, attr in holders:
            self._undo.append((holder, attr, original))
            setattr(holder, attr, replacement)

    def method(self, cls, name: str, make: Callable) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, make(original))

    def restore(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: contextvars.ContextVar[tuple[int, ...]] = contextvars.ContextVar(
            "perfbench_span_stack", default=())
        self._ids = itertools.count(1)
        self._orphan_parent: int | None = None
        self.patches = Patches()

    def _open(self, adopt_orphans: bool):
        stack = self._stack.get()
        parent = stack[-1] if stack else self._orphan_parent
        sid = next(self._ids)
        token = self._stack.set(stack + (sid,))
        previous = self._orphan_parent
        if adopt_orphans:
            self._orphan_parent = sid
        return sid, parent, token, previous

    def _close(self, token, adopt_orphans: bool, previous) -> None:
        self._stack.reset(token)
        if adopt_orphans:
            self._orphan_parent = previous

    def wrap(self, name: str, fn: Callable, before: Callable | None = None,
             after: Callable | None = None, adopt_orphans: bool = False) -> Callable:
        """`before(attrs, *args, **kwargs)` and `after(attrs, result)` fill the
        span's counters outside its timed interval. With `adopt_orphans`,
        spans opened on threads with no open span become its children."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs: dict = {}
            if before is not None:
                before(attrs, *args, **kwargs)
            sid, parent, token, previous = self._open(adopt_orphans)
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = time.perf_counter()
                attrs["error"] = 1
                self._close(token, adopt_orphans, previous)
                self.spans.append(Span(sid, parent, name, t0, t1,
                                       time.thread_time() - cpu0, attrs))
                raise
            t1 = time.perf_counter()
            cpu = time.thread_time() - cpu0
            self._close(token, adopt_orphans, previous)
            if after is not None:
                after(attrs, result)
            self.spans.append(Span(sid, parent, name, t0, t1, cpu, attrs))
            return result

        return wrapper

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code (one op)."""
        sid, parent, token, previous = self._open(False)
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            self._close(token, False, previous)
            self.spans.append(Span(sid, parent, name, t0, t1, time.thread_time() - cpu0))

    def install_function(self, module, name: str, span: str, **hooks) -> None:
        self.patches.function(module, name, lambda fn: self.wrap(span, fn, **hooks))

    def install_method(self, cls, name: str, span: str, **hooks) -> None:
        self.patches.method(cls, name, lambda fn: self.wrap(span, fn, **hooks))

    def uninstall(self) -> None:
        self.patches.restore()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                attrs = {k: v for k, v in span.attrs.items() if not k.startswith("_")}
                out.write(json.dumps({"id": span.id, "parent": span.parent, "name": span.name,
                                      "start": span.start, "end": span.end, "cpu": span.cpu,
                                      "attrs": attrs}) + "\n")


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class SpanTree:
    """Parent/child index over recorded spans with self times."""

    def __init__(self, spans: list[Span]):
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)
        for kids in self.children.values():
            kids.sort(key=lambda s: s.start)

    def self_time(self, span: Span) -> float:
        kids = self.children.get(span.id, [])
        return span.duration - covered([(k.start, k.end) for k in kids], span.start, span.end)

    def walk(self, root: Span):
        """Yield (span, outermost) for the subtree under `root`, root
        excluded; `outermost` is false inside a span of the same name."""
        stack = [(kid, frozenset((root.name,))) for kid in self.children.get(root.id, [])]
        while stack:
            span, names = stack.pop()
            yield span, span.name not in names
            inner = names | {span.name}
            stack.extend((kid, inner) for kid in self.children.get(span.id, []))
