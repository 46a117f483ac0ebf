"""Spans around the program's public functions, installed from outside.

A span wraps the name that the calling module looks up (a module global or
a class attribute), so the program itself is not edited.  Spans nest
through a stack: a span's self time is its duration minus the time of the
spans it caused.  A span named in `memory` runs under tracemalloc and
records the peak of memory allocated during it (tracemalloc slows the work
it watches, so such a span's time is not to be read).

A name that the program no longer has is skipped, so a stage that a later
version removes reports no span instead of breaking the run.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, memory: tuple[str, ...] = ()) -> None:
        self.memory = memory
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.peak_bytes: dict[str, int] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None):
        """fn with a span named `name`; observe(result) sees every result."""
        stack = self._stack
        memory = name in self.memory

        def traced(*args, **kwargs):
            if memory:
                tracemalloc.start()
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = stack.pop()
                self.self_s[name] += dt - children
                self.calls[name] += 1
                if stack:
                    stack[-1] += dt
                if memory:
                    self.peak_bytes[name] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> bool:
        """Replace owner.attr by a traced version; False if it is absent."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, self.wrap(name, fn, observe))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)  # it was inherited
            else:
                setattr(owner, attr, original)
