"""Spans and counters recorded around calls into rncgeom's layers.

A traced pass rebinds chosen public names to wrappers defined here.  The
name is rebound in every rncgeom module that holds the same function
object, since ``from .projective import bracket`` gives each importing
module its own binding; methods are replaced on their class.  Every patch
is undone when the pass ends.

Each span is ``[name, start, end, parent]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1
at top level).  Spans stay in memory and are written out after the pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

# (module, attribute) -> span name.  Each function is rebound wherever
# rncgeom imported it.
PATCHED_FUNCTIONS = {
    ("rncgeom.projective", "bracket"): "projective.bracket",
    ("rncgeom.projective", "is_general_linear_position"): "projective.glp",
    ("rncgeom.equations", "enumerate_equations"): "equations.select",
    ("rncgeom.equations", "sample_equations"): "equations.select",
    ("rncgeom.staudt", "build_instance"): "staudt.build",
    ("rncgeom.curve", "fit_rnc"): "curve.fit",
    ("rncgeom.curve", "curve_contains"): "curve.fit",
    ("rncgeom.polynomials", "poly_det"): "polynomials.poly_det",
    ("rncgeom.identities", "vertex_polys"): "identities.vertex_polys",
}


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] += k

    def wrap(self, name: str, fn: Callable) -> Callable:
        """fn with each call in a span; a generator function gets one span
        per resumption, so only the time spent producing items counts."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class NullTracer:
    """The untraced stand-in: same call interface, records nothing."""

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, k: int = 1) -> None:
        pass


def _rncgeom_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == "rncgeom" or name.startswith("rncgeom."))]


@contextmanager
def patched(tracer: Tracer):
    """Rebind the traced names for the duration of the block.

    Yields the list of (owner, attribute, original) patches; every one is
    restored on exit, whatever the block raised.
    """
    patches: list[tuple] = []
    modules = _rncgeom_modules()
    try:
        for (mod_name, attr), span in PATCHED_FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = tracer.wrap(span, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

        multipoly = sys.modules["rncgeom.polynomials"].MultiPoly
        mul = multipoly.__mul__

        def traced_mul(a, b):
            tracer.count("polynomials.mul_term_pairs",
                         len(a.terms) * (len(b.terms)
                                         if isinstance(b, multipoly) else 1))
            return tracer.call("polynomials.mul", mul, a, b)

        patches.append((multipoly, "__mul__", mul))
        multipoly.__mul__ = traced_mul

        table = sys.modules["rncgeom.equations"].BracketTable
        minor = table.minor

        def counted_minor(self, cols):
            tracer.count("equations.minor_lookups")
            return minor(self, cols)

        patches.append((table, "minor", minor))
        table.minor = counted_minor
        yield patches
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# analysis


def _covered(intervals: Iterable[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - _covered(children[i], start, end)
            for i, (name, start, end, parent) in enumerate(spans)]


def _has_ancestor(spans: Sequence[Sequence], i: int, name: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


class SpanSummary:
    """Per-name call counts, self times and inclusive times."""

    def __init__(self, spans: Sequence[Sequence]):
        self.spans = spans
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.inclusive_s: defaultdict = defaultdict(float)
        for i, ((name, start, end, _), own) in enumerate(
                zip(spans, self_times(spans))):
            self.calls[name] += 1
            self.self_s[name] += own
            # a name nested in itself is counted once, at the outer span
            if not _has_ancestor(spans, i, name):
                self.inclusive_s[name] += end - start

    def calls_under(self, name: str, ancestor: str) -> int:
        return sum(1 for i, s in enumerate(self.spans)
                   if s[0] == name and _has_ancestor(self.spans, i, ancestor))

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)
