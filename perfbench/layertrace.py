"""Span tracing at hierh2's layer boundaries, installed from outside the package.

A layer is one module of the package.  ``Tracer.install`` replaces every
public function of a layer module, in every hierh2 namespace that holds it
(its own module included, so calls inside one module are seen too), by a
wrapper that records a span; ``uninstall`` puts the originals back.  The
library is not edited and the untraced run installs nothing.

A span is ``[name, start, end, parent index, root]``.  The benchmark opens
one root span per set-up repetition and per op; spans of one root share its
``(kind, index)`` identifier.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("plant", "projection", "statespace", "linalg", "hamiltonian",
          "synthesis", "gapdesign", "simulate", "serialize")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.results: dict[int, bool] = {}   # span index -> bool return value
        self._stack: list[int] = []
        self._root = None
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def layer_functions(self) -> dict:
        """Public functions defined in the layer modules, by span name."""
        out = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    out[f"{layer}.{attr}"] = fn
        return out

    def install(self) -> int:
        """Wrap every layer function everywhere it is bound; returns the count."""
        by_fn = {fn: name for name, fn in self.layer_functions().items()}
        wrappers = {}
        prefix = self.package.__name__ + "."
        namespaces = [self.package] + [m for k, m in sorted(sys.modules.items())
                                       if k.startswith(prefix)]
        for ns in namespaces:
            for attr, fn in list(vars(ns).items()):
                if isinstance(fn, types.FunctionType) and fn in by_fn:
                    if fn not in wrappers:
                        wrappers[fn] = self._wrap(by_fn[fn], fn)
                    setattr(ns, attr, wrappers[fn])
                    self._patched.append((ns, attr, fn))
        return len(self._patched)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, results = self.spans, self._stack, self.results
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          self._root])
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = clock()
            if isinstance(out, bool):
                results[i] = out
            return out

        return wrapper

    # -- recording ----------------------------------------------------------

    @contextmanager
    def root(self, kind: str, index: int):
        """Root span for one set-up repetition or one op."""
        if self._stack:
            raise RuntimeError("root spans cannot nest")
        i = len(self.spans)
        self._root = (kind, index)
        self.spans.append([kind, time.perf_counter(), 0.0, -1, self._root])
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[i][2] = time.perf_counter()
            self._root = None

    # -- analysis -----------------------------------------------------------

    def _children_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return child

    def nesting_error(self) -> float:
        """Largest violation, in seconds, of span nesting.

        Zero when every span lies inside its parent, siblings do not
        overlap, and each root's wall time equals the sum of the self times
        of the spans under it (its own included).
        """
        worst = 0.0
        last_end: dict[int, float] = {}
        for s in self.spans:
            p = s[3]
            if p < 0:
                continue
            parent = self.spans[p]
            worst = max(worst, parent[1] - s[1], s[2] - parent[2],
                        last_end.get(p, s[1]) - s[1])
            last_end[p] = s[2]
        child = self._children_time()
        subtree_self: dict[int, float] = defaultdict(float)
        root_of = []
        for i, s in enumerate(self.spans):
            r = i if s[3] < 0 else root_of[s[3]]
            root_of.append(r)
            subtree_self[r] += (s[2] - s[1]) - child[i]
        for r, total in subtree_self.items():
            wall = self.spans[r][2] - self.spans[r][1]
            worst = max(worst, abs(total - wall))
        return worst

    def summarize(self, kind: str) -> tuple[int, dict]:
        """(number of roots, {span name: [calls, busy_s, self_s, passed]})
        summed over the roots of one kind.

        busy_s counts a span only when no ancestor has the same name, so a
        function that reaches itself again is not counted twice.
        """
        child = self._children_time()
        stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        roots = 0
        for i, s in enumerate(self.spans):
            if s[4][0] != kind:
                continue
            if s[3] < 0:
                roots += 1
            dur = s[2] - s[1]
            st = stats[s[0]]
            st[0] += 1
            st[2] += dur - child[i]
            st[3] += int(self.results.get(i, False))
            p = s[3]
            while p >= 0 and self.spans[p][0] != s[0]:
                p = self.spans[p][3]
            if p < 0:
                st[1] += dur
        return roots, dict(stats)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "root": list(s[4])}) + "\n")
