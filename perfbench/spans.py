"""In-memory span recording around calls into the program's layers.

The benchmark times each layer from outside: it replaces a public
function or method with a wrapper that records one span per call, at the
place where the calling module looks the name up (a module attribute such
as ``repro.gateway.server.encode_frame``, or an attribute of one object
such as ``router.submit``).  Nothing inside ``src/`` changes.

A span is ``(name, start_ns, end_ns, parent)`` where ``parent`` is the
index of the enclosing span recorded by this process (``-1`` for a root).
Wrapped calls are synchronous, so on one thread the open spans always
form a stack; that is what makes ``parent`` well defined even inside an
asyncio loop (no await happens between a wrapper's start and end).

A layer's *self time* is its span minus the part of that interval its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

Span = Tuple[str, int, int, int]


class SpanRecorder:
    """Collects spans of one process in memory until :meth:`write_jsonl`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: Extra per-call counts (e.g. elements per kernel call), by name.
        self.counts: Dict[str, float] = {}

    def wrap(self, function: Callable, name: str, count: Callable = None) -> Callable:
        """A wrapper of ``function`` that records one span per call.

        ``count`` (optional) maps the call's arguments to a number added to
        ``counts[name]`` — the work the call did, for per-unit ratios.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        counts = self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
                if count is not None:
                    counts[name] = counts.get(name, 0.0) + count(*args, **kwargs)

        wrapper.__wrapped__ = function
        return wrapper

    def wrap_iterator(self, function: Callable, name: str) -> Callable:
        """Wrap a generator function: one span per item it produces.

        Used for :meth:`FrameDecoder.feed`, which yields one decoded frame
        per step; each ``next()`` is timed on its own, so the caller's work
        between items (handling the frame) is not counted as decoding.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            iterator = function(*args, **kwargs)
            while True:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    # The exhausting step does no decoding of its own.
                    spans.pop()
                    stack.pop()
                    return
                spans[index] = (name, start, clock(), parent)
                stack.pop()
                yield item

        wrapper.__wrapped__ = function
        return wrapper

    def write_jsonl(self, path: str, process: str) -> None:
        """Write every span as one JSON object per line."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                name, start, end, parent = span
                handle.write(
                    json.dumps(
                        {
                            "process": process,
                            "id": index,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


@contextmanager
def patched(target, attribute: str, replacement) -> Iterator[None]:
    """Bind ``target.attribute`` to ``replacement`` for the ``with`` body.

    Works for modules (the import site of a name) and for single objects
    (an instance attribute shadows the class method for that object only).
    """
    had_own = attribute in vars(target)
    original = vars(target).get(attribute)
    setattr(target, attribute, replacement)
    try:
        yield
    finally:
        if had_own:
            setattr(target, attribute, original)
        else:
            delattr(target, attribute)


def self_times(spans: List[Span]) -> List[int]:
    """Self time of each span: its duration minus what its children cover.

    Children are clipped to the parent's interval and merged before
    subtraction, so overlapping or out-of-range children never drive a
    self time negative or count twice.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append(end - start - covered)
    return result


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total and self time in seconds."""
    table: Dict[str, Dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) * 1e-9
        row["self_s"] += own * 1e-9
    return table


def root_time_s(spans: Iterable[Span]) -> float:
    """Wall time covered by root spans (spans with no parent)."""
    return sum((end - start) for _, start, end, parent in spans if parent < 0) * 1e-9
