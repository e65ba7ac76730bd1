"""In-memory span tracer that wraps layer entry points from outside.

The benchmark measures its end-to-end metrics with no instrumentation.
For the per-layer breakdown it patches the public entry point of each
layer (a method, classmethod or module-level function, looked up where
its caller finds it) with a wrapper that records a span -- name, start,
end and the span open around it -- and restores every original when
tracing stops.  Spans and counts stay in memory and are written once,
at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: One recorded span: ``(name, start, end, parent index or -1)``.
Span = Tuple[str, float, float, int]


class Tracer:
    """Records spans around patched callables."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)

    # -- patching ------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name,
        on_call: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until
        :meth:`restore`.

        Args:
            owner: Class, instance or module holding the callable.
            attr: Attribute name.
            name: Span name, or a callable ``(args, kwargs) -> name``.
            on_call: Optional ``(tracer, result, args, kwargs)`` hook run
                after each call, for counts.
        """
        raw = vars(owner).get(attr)
        kind = None
        if isinstance(raw, classmethod):
            kind, target = classmethod, raw.__func__
        elif isinstance(raw, staticmethod):
            kind, target = staticmethod, raw.__func__
        else:
            target = getattr(owner, attr)
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = tracer._open(label)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer.counts[label + ".calls"] += 1
            if on_call is not None:
                on_call(tracer, result, args, kwargs)
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is None:
                # An instance attribute patched over a class method.
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- queries -------------------------------------------------------
    def durations(self, name: str, mark: int = 0) -> List[float]:
        """Durations of every span called ``name`` after ``mark``."""
        return [e - s for n, s, e, _ in self.spans[mark:] if n == name]

    def total(self, names: Iterable[str], mark: int = 0) -> float:
        """Seconds covered by spans in ``names`` after ``mark``, counting
        a span nested inside another span of ``names`` only once."""
        wanted = set(names)
        total = 0.0
        for index in range(mark, len(self.spans)):
            name, start, end, parent = self.spans[index]
            if name not in wanted:
                continue
            outer = parent
            while outer >= 0 and self.spans[outer][0] not in wanted:
                outer = self.spans[outer][3]
            if outer < 0:
                total += end - start
        return total

    def dump(self, path, extra: Dict) -> None:
        """Write spans (microseconds from the first span) and counts."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["counts"] = dict(self.counts)
        doc["span_fields"] = ["name", "start_us", "end_us", "parent"]
        doc["spans"] = [
            [n, round((s - origin) * 1e6, 3), round((e - origin) * 1e6, 3), p]
            for n, s, e, p in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))

