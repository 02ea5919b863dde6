"""Spans and counters recorded from outside the needleboard package.

The tracer replaces the module attributes through which one layer calls
another (for example ``needleboard.search.breakpoint_offsets``, the name the
search module looks up at call time) with wrappers that record one span per
call, and puts the originals back when the traced pass ends.  Nothing inside
the package changes, so a traced report must be byte-identical to an
untraced one.

A span is (id, parent id, name, start, end).  Its parent is the innermost
open span of the calling thread; a worker thread with no open span of its own
(the search module's direction-scan pool) takes the innermost open span of
the main thread, which is blocked in the call that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Records spans and counts while its hooks are installed.

    hooks: (module, attribute, span name, counter) tuples.  A counter is
    None or a function (counts, args, result) that adds to the Counter;
    it runs under a lock because worker threads call it too.
    """

    def __init__(self, hooks):
        self._hooks = hooks
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()

    def _open(self) -> tuple[list[int], int, int | None]:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextmanager
    def span(self, name: str):
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _wrap(self, orig, name, count):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = orig(*args, **kwargs)
            if count is not None:
                with self._lock:
                    count(self.counts, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every hooked attribute for its wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, name, count in self._hooks:
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self._wrap(orig, name, count))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def take(self):
        """Return (spans, counts) recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def _covered(intervals, lo: float, hi: float) -> float:
    # Length of the union of the intervals, clipped to [lo, hi]; children on
    # worker threads overlap each other, so their durations cannot be summed.
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds].

    Self time is a span's duration minus the part of it that its child
    spans cover.
    """
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    rows: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, _, name, start, end in spans:
        row = rows[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - _covered(children.get(sid, ()), start, end)
    return dict(rows)
