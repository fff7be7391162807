"""In-memory span recorder, call-site wrappers and self-time arithmetic.

Spans are kept in a list while the traced phase runs and written out once it
ends. A span is ``[name, start, end, parent, request, thread]``; ``parent``
is the index of the enclosing span (-1 for a root). The enclosing span is
the innermost open span on the same thread; a span opened on a thread with
no open span (a server handler) takes the recorder's ``link`` instead, which
the client sets to its in-flight RPC span. With one outstanding request that
link is unambiguous.

Wrappers are installed only for the traced phase and removed afterwards.
Module-level functions are replaced in every ``lignn`` module that imported
them, so each call site sees the wrapper.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

NAME, START, END, PARENT, REQUEST, THREAD = range(6)


class Recorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.request = -1
        self.link = -1
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.link
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                [name, self.clock(), None, parent, self.request, threading.get_ident()]
            )
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self._stack().pop()

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``after(result, args)`` runs outside it."""

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    (such as a server span inside its client RPC span on another thread)
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        p = span[PARENT]
        if p >= 0:
            children[p].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        kids = [(max(a, lo), min(b, hi)) for a, b in children.get(i, ()) if b > lo and a < hi]
        out.append((hi - lo) - _union_length(kids))
    return out


def outermost(spans: list[list]) -> list[bool]:
    """True for spans with no ancestor of the same name (one call each)."""
    out = []
    for span in spans:
        p = span[PARENT]
        while p >= 0 and spans[p][NAME] != span[NAME]:
            p = spans[p][PARENT]
        out.append(p < 0)
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """name -> {calls, self_s, total_s}; total_s counts outermost spans only."""
    selfs = self_times(spans)
    top = outermost(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span, s, is_top in zip(spans, selfs, top):
        row = out[span[NAME]]
        row["self_s"] += s
        if is_top:
            row["calls"] += 1
            row["total_s"] += span[END] - span[START]
    return dict(out)


def covered_time(spans: list[list]) -> float:
    """Wall time inside at least one span."""
    return _union_length((s[START], s[END]) for s in spans)


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object, bool]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        own = vars(owner)
        self._saved.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, value)

    def function(self, fn: Callable, replacement: Callable) -> int:
        """Replace ``fn`` in every loaded lignn module that binds it."""
        count = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "lignn" or name.startswith("lignn.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, replacement)
                    count += 1
        if count == 0:
            raise LookupError(f"{fn.__module__}.{fn.__qualname__} is bound nowhere")
        return count

    def restore(self) -> None:
        while self._saved:
            owner, attr, value, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)  # an instance attribute shadowed its class
