"""In-memory span tracing around the library's layer boundaries.

A Tracer replaces each traced function at the name its caller looks up
(a module attribute or a class attribute) with a wrapper that records one
span: name, start, end and parent.  Spans live in flat arrays while the
run lasts and are written out once at the end.  Self time is a span's
duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so that every call records a span called `name`."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[i] = clock()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Trace owner.attr (a module or class) until uninstall()."""
        self.swap(owner, attr, self.span(name, owner.__dict__[attr], on_result))

    def count(self, owner, attr: str, key: str) -> None:
        """Count calls to owner.attr without recording spans."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.add(key)
            return original(*args, **kwargs)

        self.swap(owner, attr, counted)

    def swap(self, owner, attr: str, value) -> None:
        """Set owner.attr to value until uninstall()."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # -- reporting ---------------------------------------------------------

    def arrays(self):
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return names, parents, dur

    def self_times(self) -> dict[str, float]:
        names, parents, dur = self.arrays()
        child = np.bincount(parents[parents >= 0], weights=dur[parents >= 0],
                            minlength=len(dur))
        own = dur - child
        totals = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: float(totals[i]) for i, n in enumerate(self.names)}

    def calls(self) -> dict[str, int]:
        names, _, _ = self.arrays()
        totals = np.bincount(names, minlength=len(self.names))
        return {n: int(totals[i]) for i, n in enumerate(self.names)}

    def calls_under(self, name: str, parent_name: str) -> int:
        """Number of `name` spans whose direct parent is a `parent_name` span."""
        if name not in self._ids or parent_name not in self._ids:
            return 0
        names, parents, _ = self.arrays()
        sel = (names == self._ids[name]) & (parents >= 0)
        return int(np.sum(names[parents[sel]] == self._ids[parent_name]))

    def save(self, path) -> None:
        names, parents, dur = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=names, parent=parents,
            start=np.frombuffer(self.start, dtype=np.float64), duration=dur,
        )
