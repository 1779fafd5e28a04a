"""In-memory span tracing for the benchmark.

A span records (name, start, end, parent, op) at a layer boundary. Spans are
opened by wrappers that the benchmark installs around the public functions of
each ``entatlas`` module for the length of a traced run; the program itself
is not modified.  Spans stay in memory and are written out once, when the run
ends.  A span's self time is its duration minus the time its direct children
cover (calls are strictly nested in one thread, so the children never overlap).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = defaultdict(int)
        self._stack = []
        self._op = None
        self._patches = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, _clock(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = _clock()
        self._stack.pop()
        return span[2] - span[1]

    def root(self, name: str, op=None):
        """Context manager for a root span; ``op`` tags it and its subtree."""
        return _Root(self, name, op)

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    def wrap(self, name, fn):
        """``fn`` with a span around every call; ``name`` may be a callable
        mapping the call's arguments to a span name."""
        naming = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(naming(*args, **kwargs) if naming else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    # -- installing wrappers -------------------------------------------------

    def patch(self, owner, attr: str, name):
        """Replace ``owner.attr`` (a function or a property) by a traced one."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        if isinstance(orig, property):
            setattr(owner, attr, property(self.wrap(name, orig.fget)))
        else:
            setattr(owner, attr, self.wrap(name, orig))

    def unpatch(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis ------------------------------------------------------------

    def roots_of(self):
        """Index of the root span above each span."""
        out = []
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            out.append(i if parent < 0 else out[parent])
        return out

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def summary(self, root_prefix: str):
        """name -> (calls, total s, self s) over spans under roots whose
        name starts with ``root_prefix``."""
        roots = self.roots_of()
        selfs = self.self_times()
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if self.spans[roots[i]][0].startswith(root_prefix):
                row = out[name]
                row[0] += 1
                row[1] += end - start
                row[2] += selfs[i]
        return dict(out)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "self_s": self.self_times(),
                    "counts": dict(self.counts),
                },
                fh,
            )


class _Root:
    def __init__(self, tracer, name, op):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        self.prev_op = self.tracer._op
        self.tracer._op = self.op
        self.idx = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.seconds = self.tracer.end(self.idx)
        self.tracer._op = self.prev_op
        return False
