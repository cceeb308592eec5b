"""Span tracer that wraps expmoments' functions from outside the package.

A span records name, start, end, parent span and operation id; spans stay
in memory until the run ends.  Hot leaf functions (integrand evaluations,
`loggamma`) are counted and timed in aggregate instead: their time is
charged to the enclosing span as child time, so self times stay exact
without storing millions of spans.

Modules bind names with `from .x import y`, so a function is wrapped at
every module that binds it; methods are wrapped on their class.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.leaf_s = array("d")  # time in aggregated leaf calls directly below the span
        self.errors: dict[int, str] = {}  # span index -> exception type name
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._in_leaf = False
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.leaf_s.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, error: BaseException | None = None) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if error is not None:
            self.errors[i] = type(error).__name__

    def span(self, name: str, fn, observe=None):
        """fn wrapped in a span; observe(span, args, kwargs, result) runs after a return."""

        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(i, exc)
                raise
            self.close(i)
            if observe is not None:
                observe(i, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn):
        """fn counted and timed in aggregate; a nested call is counted only."""

        def wrapper(*args, **kwargs):
            self.leaf_calls[name] += 1
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._in_leaf = False
                self.leaf_time[name] += dt
                if self._stack:
                    self.leaf_s[self._stack[-1]] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ----------------------------------------------------
    def patch(self, owner, attr: str, wrapper_factory) -> bool:
        """Replace owner.attr by wrapper_factory(original); False if absent."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False
        setattr(owner, attr, wrapper_factory(original))
        self._patches.append((owner, attr, original))
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "leaf_s": np.array(self.leaf_s),
        }

    def raised(self, name: str, error: str | None = None) -> list[int]:
        """Indices of the spans called `name` that raised (`error`: only that type)."""
        nid = self._name_ids.get(name)
        return [i for i, err in self.errors.items() if self.name[i] == nid and error in (None, err)]

    def summary(self) -> dict:
        """{name: {"calls", "self_s", "total_s"}} over spans and leaves."""
        selfs = self_times(self.start, self.end, self.parent, self.leaf_s)
        out: dict[str, dict] = {}
        for i, nid in enumerate(self.name):
            row = out.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[i]
            row["total_s"] += self.end[i] - self.start[i]
        for name, calls in self.leaf_calls.items():
            t = self.leaf_time[name]
            out[name] = {"calls": calls, "self_s": t, "total_s": t}
        return out


def self_times(start, end, parent, leaf_s=None) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (overlapping children counted once), minus
    time in aggregated leaf calls."""
    n = len(start)
    children: dict[int, list[int]] = defaultdict(list)
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = [0.0] * n
    for i in range(n):
        lo, hi = start[i], end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], lo), min(end[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[i] = (hi - lo) - covered - (leaf_s[i] if leaf_s is not None else 0.0)
    return out
