"""Span tracer that wraps batchprox module attributes from outside.

A traced run replaces each listed module attribute by a wrapper that records
one span (name, parent, start, end) per call in flat arrays, and restores the
originals on ``uninstall``.  Library code looks these names up on the module
at call time (``problems.batch_losses(...)`` or a module-global call), so the
wrappers see every call made through the module.  Results are passed through
untouched; counts such as box-QP sweeps are read from the returned values.

Self time of a span is its duration minus the durations of its direct child
spans, computed once at the end from the span table.
"""

from __future__ import annotations

import functools
import time
import warnings
from array import array
from collections import Counter

import numpy as np


class TraceError(RuntimeError):
    """A name to wrap is missing from its module."""


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = {}
        self.warnings: Counter = Counter()
        self._warn_ctx = None

    # -- installation -------------------------------------------------------

    def wrap(self, module, attr: str, label: str, on_result=None, on_error=None):
        """Replace ``module.attr`` by a span-recording wrapper named ``label``.

        ``on_result(tracer, result, parent)`` and
        ``on_error(tracer, exc, parent)`` run outside the timed interval of
        the span; ``parent`` is the index of the enclosing span or -1.
        """
        if not hasattr(module, attr):
            raise TraceError(
                f"{module.__name__}.{attr} does not exist; the traced name "
                f"{label!r} must be updated to match the library"
            )
        orig = getattr(module, attr)
        nid = self._ids.setdefault(label, len(self._ids))
        if nid == len(self.names):
            self.names.append(label)
        stack, clock = self._stack, self.clock
        name_a, parent_a, start_a, end_a = self.name, self.parent, self.start, self.end

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            i = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            end_a.append(0.0)
            stack.append(i)
            start_a.append(clock())
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                end_a[i] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(self, exc, parent_a[i])
                raise
            end_a[i] = clock()
            stack.pop()
            if on_result is not None:
                on_result(self, result, parent_a[i])
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, orig))

    def __enter__(self):
        self._warn_ctx = warnings.catch_warnings()
        self._warn_ctx.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._count_warning
        return self

    def __exit__(self, *exc):
        self.uninstall()
        self._warn_ctx.__exit__(*exc)
        return False

    def uninstall(self):
        while self._installed:
            module, attr, orig = self._installed.pop()
            setattr(module, attr, orig)

    def _count_warning(self, message, category, filename, lineno, file=None,
                       line=None):
        self.warnings[(category.__name__, filename)] += 1

    # -- helpers for result hooks --------------------------------------------

    def add_sample(self, key: str, value: float):
        self.samples.setdefault(key, []).append(value)

    def label_of(self, span: int) -> str | None:
        return None if span < 0 else self.names[self.name[span]]

    # -- aggregation ------------------------------------------------------------

    def span_table(self):
        """(name_id, parent, start, end) as NumPy arrays (copies, so the
        span arrays can keep growing)."""
        return (np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def self_times(self):
        """Per-span self time: duration minus the durations of direct
        children.  Returns (name_ids, durations, self_times)."""
        name, parent, start, end = self.span_table()
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, dur, dur - child

    def per_name(self):
        """{label: (calls, total_s, self_s)} over all recorded spans."""
        name, dur, self_t = self.self_times()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_t, minlength=k)
        return {self.names[i]: (int(calls[i]), float(total[i]), float(own[i]))
                for i in range(k)}

    def save(self, path: str):
        name, parent, start, end = self.span_table()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)
