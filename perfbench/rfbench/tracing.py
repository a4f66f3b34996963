"""Outside-in span tracing: time public calls without editing the program.

:class:`SpanRecorder` replaces an attribute of an object, class or
module with a timing wrapper and puts the original back on
:meth:`SpanRecorder.restore`. Every call through a wrapper records one
:class:`Span` — name, start, end, parent span and request id — in
memory; :meth:`SpanRecorder.write` saves them once, at exit.

Spans nest through a stack, so a layer's *self* time is its span minus
the part of that interval its child spans cover
(:meth:`SpanRecorder.self_ns`). Coroutine wrappers
(:meth:`SpanRecorder.wrap_async`) record spans without joining the
stack, since other tasks run while they wait.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter_ns
from typing import NamedTuple

__all__ = ["Span", "SpanRecorder"]

_MISSING = object()


class Span(NamedTuple):
    """One timed call.

    Attributes:
        name: layer-qualified call name, e.g. ``"core.step"``.
        start / end: ``perf_counter_ns`` stamps.
        parent: index of the enclosing span, or ``None``.
        request: the EPC or job the call worked for (inherited from the
            parent when the wrapper cannot tell).
        count: an optional work count read from the call (rows, bytes).
    """

    name: str
    start: int
    end: int
    parent: int | None
    request: str | None
    count: int | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class SpanRecorder:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        # Plain tuples in Span field order: the garbage collector stops
        # tracking tuples of atoms, so a long trace does not slow every
        # later collection the way 10^5 live objects would.
        self._records: list = []
        self._stack: list[tuple[int, str | None]] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[Span]:
        """Every recorded span, in call order (read once all calls returned)."""
        return [Span(*record) for record in self._records]

    def __len__(self) -> int:
        return len(self._records)

    # -- installing -------------------------------------------------------
    def _install(self, owner, attr: str, wrapper) -> None:
        raw = vars(owner).get(attr, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, request=None, count=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        Args:
            owner: an instance, class or module.
            attr: the callable attribute to wrap.
            name: the span name.
            request: optional ``f(args, kwargs) -> str`` naming the
                request a call serves; otherwise the parent's is used.
            count: optional ``f(result, args) -> int`` work count.
        """
        original = getattr(owner, attr)
        records, stack = self._records, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent, inherited = stack[-1] if stack else (None, None)
            req = inherited if request is None else request(args, kwargs)
            index = len(records)
            records.append(None)
            stack.append((index, req))
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                records[index] = (name, start, end, parent, req, None)
            if count is not None:
                records[index] = (name, start, end, parent, req, int(count(result, args)))
            return result

        self._install(owner, attr, wrapper)

    def wrap_async(self, owner, attr: str, name: str, request=None) -> None:
        """Time every await of the coroutine method ``owner.attr``."""
        original = getattr(owner, attr)
        records = self._records

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            req = None if request is None else request(args, kwargs)
            index = len(records)
            records.append(None)
            start = perf_counter_ns()
            try:
                return await original(*args, **kwargs)
            finally:
                records[index] = (name, start, perf_counter_ns(), None, req, None)

        self._install(owner, attr, wrapper)

    def truncate(self, mark: int) -> None:
        """Forget every record after the first ``mark`` (see ``len``)."""
        del self._records[mark:]

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- reading ----------------------------------------------------------
    def durations_ns(self, name: str) -> list[int]:
        return [span.duration for span in self.spans if span.name == name]

    def self_ns(self) -> list[int]:
        """Each span's duration minus the union of its children's."""
        spans = self.spans
        children: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[span.parent].append(span)
        result = []
        for index, span in enumerate(spans):
            covered = 0
            reach = span.start
            for child in sorted(children.get(index, ()), key=lambda c: c.start):
                lo = max(child.start, reach)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result.append(span.duration - covered)
        return result

    def self_ns_by_name(self) -> dict[str, list[int]]:
        grouped: dict[str, list[int]] = defaultdict(list)
        for span, own in zip(self.spans, self.self_ns()):
            grouped[span.name].append(own)
        return grouped

    def warmups_ns(self) -> list[int]:
        """Per-session warm-up: each positioner call plus the tracer
        ``begin`` that follows it (they run back to back per word)."""
        return [
            a + b for a, b in zip(self.durations_ns("core.candidates"),
                                  self.durations_ns("core.begin"))
        ]

    def write(self, path) -> None:
        """Save every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
