"""In-memory spans around calls into the package's layers.

A Tracer replaces module attributes with wrappers that record one span per
call: id, parent id, name, start and end (perf_counter seconds). Callers in
the package look these functions up as module globals at call time, so
patching the attribute a caller reads is enough. `restore` puts every
original back.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

ID, PARENT, NAME, START, END = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[END] = perf_counter()

    def wrap(self, name: str, fn, count=None):
        """fn with a span per call; count(counts, args, result) if given."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, count))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its children's union covers."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for rec in spans:
        start, end = rec[START], rec[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[rec[ID]]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def by_name(spans) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total duration, total self time)."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for rec, own in zip(spans, self_times(spans)):
        t = totals[rec[NAME]]
        t[0] += 1
        t[1] += rec[END] - rec[START]
        t[2] += own
    return {name: tuple(t) for name, t in totals.items()}
