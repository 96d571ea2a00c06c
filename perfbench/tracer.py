"""In-memory span tracer installed by patching accessfix from the outside.

The tracer replaces public functions and methods of the accessfix modules
with timing wrappers for the duration of a ``with tracer.installed():``
block, and restores them afterwards. A function imported by name into
several modules (``from .dom import resolve``) is replaced in every module
that holds it, so calls are seen whichever module makes them. Nothing in
``src/`` is edited.

Each span is a tuple ``(id, parent, name, page, t0_ns, t1_ns, error,
note)``. ``parent`` is the innermost open span of the same thread; a worker
thread with no open span adopts the innermost open span of the thread that
installed the tracer, which is blocked in the call that started the pool.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.page = None  # set by the benchmark loop before each unit of work
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._count_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, note=None):
        """Wrap ``fn`` so each call records a span; ``note(args, kwargs,
        result)`` may attach a small JSON-able value to a successful call."""
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(tracer._ids)
            stack.append(sid)
            error = result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                value = None
                if note is not None and error is None:
                    value = note(args, kwargs, result)
                tracer.spans.append(
                    (sid, parent, name, tracer.page, t0, t1, error, value)
                )

        return traced

    def counter(self, name, fn):
        """Wrap ``fn`` so calls are only counted (for very hot functions)."""
        counts, lock = self.counts, self._count_lock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, functions, methods):
        """Patch ``functions`` — ``(module, attr, name, note, count_only)``
        — wherever an accessfix module binds them, and ``methods`` —
        ``(cls, attr, name, note)`` — on their classes."""
        undo = []
        self._main_stack = self._stack()
        try:
            for module, attr, name, note, count_only in functions:
                original = getattr(module, attr)
                wrapper = (self.counter(name, original) if count_only
                           else self.span(name, original, note))
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "accessfix" and not mod_name.startswith(
                            "accessfix."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            for cls, attr, name, note in methods:
                original = cls.__dict__[attr]
                setattr(cls, attr, self.span(name, original, note))
                undo.append((cls, attr, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)
            self._main_stack = None

    def write_jsonl(self, path) -> None:
        keys = ("id", "parent", "name", "page", "t0_ns", "t1_ns", "error",
                "note")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
            for name, count in sorted(self.counts.items()):
                handle.write(json.dumps({"count": name, "value": count}) + "\n")


def self_times(spans) -> dict:
    """Span id -> self time in ns: duration minus the union of the intervals
    its child spans cover (children of a thread pool may overlap)."""
    children = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[4], span[5]))
    out = {}
    for sid, _, _, _, t0, t1, _, _ in spans:
        covered, end = 0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out
