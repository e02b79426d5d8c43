"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the
index of the enclosing span (or None), ``op`` the id of the benchmark op
that was running, and ``attrs`` whatever the wrapper's ``attrs`` hook
extracted from the call's arguments and result.  Spans stay in memory;
``write`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, attrs=None):
        """Return ``fn`` recording one span per call.

        ``attrs(args, result)`` runs after the call; on an exception it
        gets ``result=None`` and the exception propagates.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if attrs is not None:
                    span[5] = attrs(args, result)

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute) by
        a traced wrapper, so callers that look the name up there see it."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, attrs))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent, op, attrs."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def durations_by_op(spans: list[list]) -> tuple[dict, dict, list[float]]:
    """Per op: summed duration and call count of each span name, plus each
    span's self time (its duration minus the time its children cover;
    children of one span never overlap, the run being single-threaded)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    seconds: dict[int, dict[str, float]] = {}
    calls: dict[int, dict[str, int]] = {}
    self_time = []
    for i, (name, start, end, parent, op, _) in enumerate(spans):
        per_s = seconds.setdefault(op, {})
        per_c = calls.setdefault(op, {})
        per_s[name] = per_s.get(name, 0.0) + (end - start)
        per_c[name] = per_c.get(name, 0) + 1
        self_time.append(end - start - child_time[i])
    return seconds, calls, self_time
