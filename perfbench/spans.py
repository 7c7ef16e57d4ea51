"""In-memory span tracing applied from outside the program.

A ``Tracer`` replaces public names of ``adacomp`` where callers look them
up (a module global or a class attribute) with wrappers that record one
span per call: name, start, end and the span that was open when the call
began. Nothing inside ``adacomp`` is edited, and ``restore()`` puts every
original back.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped in a span; ``observe(result)`` runs after
        the span has closed, so counting outputs costs the caller, not it."""
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter_ns(), 0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = perf_counter_ns()
            if observe is not None:
                observe(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict, dict]:
        """(self time in ns, call count) per span name. Self time is a
        span's duration minus the durations of its direct children."""
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            self_ns[name] += end - start
            calls[name] += 1
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= end - start
        return self_ns, calls

    def write(self, path) -> None:
        """One JSON object per line: name, start and end in ns, parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")
