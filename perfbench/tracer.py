"""Spans and call counters recorded from outside the tppverify package.

A span is opened around each call into a layer's entry point; it records its
name, start, end and the span that was open when it began.  Hot methods get
counting wrappers only: a call increments a counter keyed by the innermost
open span, so per-phase counts need no span per call.  Everything stays in
memory until the run ends; ``uninstall`` restores every patched attribute.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()      # (span name, counter) -> calls
        self.eval_depth = 0          # > 0 while a separating function evaluates
        self._stack = []
        self._current = None
        self._patched = []           # (owner, attribute, original or None)

    # -- spans ---------------------------------------------------------------
    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        self._current = name
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self._current = self._stack[-1]["name"] if self._stack else None

    def first(self, name):
        """The first finished span with this name, or None."""
        for rec in self.spans:
            if rec["name"] == name and rec["end"] is not None:
                return rec
        return None

    def duration(self, name) -> float:
        rec = self.first(name)
        return rec["end"] - rec["start"] if rec else 0.0

    def self_time(self, name) -> float:
        """Duration of the first span named ``name`` minus its children's."""
        rec = self.first(name)
        if rec is None:
            return 0.0
        children = sum(c["end"] - c["start"] for c in self.spans
                       if c["parent"] == rec["id"] and c["end"] is not None)
        return (rec["end"] - rec["start"]) - children

    # -- patching ------------------------------------------------------------
    def _patch(self, owner, attr, new):
        had_own = attr in getattr(owner, "__dict__", {})
        self._patched.append((owner, attr, getattr(owner, attr) if had_own else None))
        setattr(owner, attr, new)

    def wrap_span(self, owner, attr, name, on_return=None):
        """Run every call of owner.attr inside a span; then on_return(args, kwargs, result)."""
        orig = getattr(owner, attr)
        tracer = self

        def spanned(*args, **kwargs):
            with tracer.span(name):
                result = orig(*args, **kwargs)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        self._patch(owner, attr, spanned)

    def wrap_count(self, owner, attr, counter):
        """Count calls of owner.attr under the innermost open span."""
        orig = getattr(owner, attr)
        counts = self.counts
        tracer = self

        def counted(*args, **kwargs):
            counts[(tracer._current, counter)] += 1
            return orig(*args, **kwargs)

        self._patch(owner, attr, counted)

    def wrap_capture(self, owner, attr, store, key):
        """Append the positional arguments of every call of owner.attr."""
        orig = getattr(owner, attr)

        def capture(*args, **kwargs):
            store.setdefault(key, []).append(args)
            return orig(*args, **kwargs)

        self._patch(owner, attr, capture)

    def wrap_matmul(self, mat_cls):
        """Count matmuls, separately noting those made outside any sep eval."""
        orig = mat_cls.matmul
        counts = self.counts
        tracer = self

        def matmul(a, b):
            counts[(tracer._current, "matmul")] += 1
            if not tracer.eval_depth:
                counts[(tracer._current, "matmul_outside_eval")] += 1
            return orig(a, b)

        self._patch(mat_cls, "matmul", matmul)

    def wrap_eval(self, fn, counter, distinct=False):
        """Count evaluations of one SepFunction instance (instance override)."""
        orig = fn.eval
        counts = self.counts
        tracer = self
        seen = set()

        def ev(m, ctx=None):
            cur = tracer._current
            counts[(cur, counter)] += 1
            if distinct:
                key = (cur, m.key())
                if key not in seen:
                    seen.add(key)
                    counts[(cur, counter + "_distinct")] += 1
            tracer.eval_depth += 1
            try:
                return orig(m, ctx)
            finally:
                tracer.eval_depth -= 1

        self._patch(fn, "eval", ev)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._patched.clear()

    # -- read-out ------------------------------------------------------------
    def total(self, counter) -> int:
        return sum(v for (_, c), v in self.counts.items() if c == counter)

    def within(self, span_name, counter) -> int:
        return self.counts.get((span_name, counter), 0)

    def to_json(self):
        return {
            "spans": self.spans,
            "counts": [[span, counter, n] for (span, counter), n
                       in sorted(self.counts.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
        }
