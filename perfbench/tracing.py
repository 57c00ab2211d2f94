"""Span tracing installed from outside the program.

:class:`Instrumentation` replaces attributes of the program (methods of
its classes, functions of its modules) with wrappers for the duration of
one pass and puts the originals back afterwards, so the program carries
no tracing code and an untraced pass runs it unmodified.

Hot entry points run ~10^5 times per simulated grid point, far too many
spans to keep, so every span *group* keeps running totals that
:class:`Tracer` computes on the fly from a stack of open spans: calls,
inclusive seconds, and self seconds, a span's self time being its
duration minus the durations of its direct child spans.  A span entered
while the innermost open span belongs to the same group (``Channel.ready``
calling ``Channel.kind_ready``) merges into it, so a group's calls and
times never count one piece of work twice.  Spans of the coarse groups
named in ``keep`` are also kept whole, with their parent, for writing out
when the benchmark ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional


class Tracer:
    """Span stack plus per-group totals; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep: Iterable[str] = ()) -> None:
        self.clock = clock
        self.keep: FrozenSet[str] = frozenset(keep)
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        #: Event counts recorded at span boundaries (e.g. scan decisions).
        self.counts: Dict[str, int] = defaultdict(int)
        #: Kept spans as dicts: id, parent (id or None), name, start, end.
        self.spans: List[Dict[str, object]] = []
        # Open frames: [group, start, child seconds, re-entry depth, kept id]
        self._stack: List[list] = []

    def enter(self, group: str) -> None:
        stack = self._stack
        if stack and stack[-1][0] == group:
            stack[-1][3] += 1
            return
        kept = None
        if group in self.keep:
            kept = len(self.spans)
            self.spans.append({"id": kept, "parent": self._kept_parent(),
                               "name": group})
        stack.append([group, self.clock(), 0.0, 0, kept])

    def exit(self) -> None:
        stack = self._stack
        frame = stack[-1]
        if frame[3]:
            frame[3] -= 1
            return
        stack.pop()
        end = self.clock()
        group = frame[0]
        duration = end - frame[1]
        self.calls[group] += 1
        self.inclusive_s[group] += duration
        self.self_s[group] += duration - frame[2]
        if stack:
            stack[-1][2] += duration
        if frame[4] is not None:
            span = self.spans[frame[4]]
            span["start"] = frame[1]
            span["end"] = end

    def _kept_parent(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame[4] is not None:
                return frame[4]
        return None


def traced_call(fn: Callable, group: str, tracer: Tracer) -> Callable:
    """``fn`` wrapped in one span of ``group`` per call."""

    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(group)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return traced


def traced_iterator(fn: Callable, group: str, tracer: Tracer,
                    count: str) -> Callable:
    """``fn`` (returning an iterable) timed per ``next()`` call.

    A lazy generator does its work inside each ``next()``, between the
    consumer's own steps, so one span covers one ``next()``; the time the
    consumer spends between two of them is not the generator's.  Every
    yielded item increments ``tracer.counts[count]``.
    """

    enter, leave = tracer.enter, tracer.exit
    counts = tracer.counts

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        while True:
            enter(group)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                leave()
            counts[count] += 1
            yield item

    return traced


def observed_call(fn: Callable, callback: Callable) -> Callable:
    """``fn`` followed by ``callback(args, result)``; no timing."""

    @functools.wraps(fn)
    def observed(*args, **kwargs):
        result = fn(*args, **kwargs)
        callback(args, result)
        return result

    return observed


class Instrumentation:
    """Replaces attributes for the life of a ``with`` block, then restores.

    ``owner`` is a class or a module and ``name`` must be defined directly
    on it, so an inherited method stays shared with the base class (the
    memory controller compares a mitigation's ``allow_activation`` with
    the base class's by identity).
    """

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, owner, name: str, make: Callable[[Callable], Callable]
                ) -> None:
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._saved.append((owner, name, original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
