"""In-memory span recording around calls into the program's layers.

The benchmark never edits the program.  For a traced run it replaces
public functions and methods of the layers with thin wrappers that record
one span per call: ``(span_id, parent_id, name, start_ns, end_ns, value)``.
Spans live in a list until the process writes them out at exit; the
parent is whatever span is open on the same thread when the call starts,
so nested layer calls form a tree and a layer's self time is its duration
minus the time covered by its children.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

Span = Tuple[int, int, str, int, int, float]


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Union[str, Callable[[tuple], str]],
        value: Optional[Callable[[tuple, Any], float]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` may be a function of the call's positional arguments, to
        tell two uses of one call apart.  ``value(args, result)`` may
        extract one number to store with the span (a byte count, a
        version); it runs after the span has ended.
        """
        self.patch(owner, attr, self.spanned(getattr(owner, attr), name, value))

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``; :meth:`unwrap_all` puts the original back."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def spanned(
        self,
        original: Callable,
        name: Union[str, Callable[[tuple], str]],
        value: Optional[Callable[[tuple, Any], float]] = None,
    ) -> Callable:
        """``original`` with every call recorded as a span."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter_ns
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append(
                (span_id, parent, name_of(args), start, end,
                 value(args, result) if value is not None else 0.0)
            )
            return result

        return wrapper

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls."""
        original = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def load(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]  # type: ignore[misc]


class SpanStats:
    """Per-name totals over a span list: count, inclusive and self time."""

    def __init__(self, spans: Iterable[Span]) -> None:
        spans = list(spans)
        child_ns: Dict[int, int] = {}
        for span_id, parent, _, start, end, _ in spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        self.count: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.value: Dict[str, float] = {}
        for span_id, _, name, start, end, value in spans:
            duration = end - start
            self.count[name] = self.count.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + duration
            self.self_ns[name] = (
                self.self_ns.get(name, 0) + duration - child_ns.get(span_id, 0)
            )
            self.value[name] = self.value.get(name, 0.0) + value

    def n(self, name: str) -> int:
        return self.count.get(name, 0)

    def total_s(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def mean_us(self, name: str) -> float:
        n = self.n(name)
        return self.total_ns.get(name, 0) / 1e3 / n if n else 0.0

    def mean_self_us(self, name: str) -> float:
        n = self.n(name)
        return self.self_ns.get(name, 0) / 1e3 / n if n else 0.0

    def mean_value(self, name: str) -> float:
        n = self.n(name)
        return self.value.get(name, 0.0) / n if n else 0.0
