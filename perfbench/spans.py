"""Spans and call counts around driftcal's public functions.

The library binds names at import time (``runner`` imports
``posterior_predictive``, ``save_samples`` and the calibrators into its own
namespace and keeps the calibrators in its ``_RUNNERS`` dict, ``koh``
imports ``mh_accept`` and ``gibbs_sigma2`` from ``embedded``), so one
function is reached through several bindings. A :class:`Tracer` wraps every
binding a layer is called through, counts calls per binding so that a
missed binding shows as a zero, and keeps spans in memory until the run
ends.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

_now = time.perf_counter


class Tracer:
    """In-memory spans (name, start, end, parent) plus call counts.

    ``counts`` holds the calls per layer name, made through any of its
    bindings; ``sites`` holds the calls per wrapped binding
    (``"<module>.<name>"``), so that a binding never reached shows as 0.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.sites: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        spans, stack = self.spans, self._stack
        self.counts[name] += 1
        i = len(spans)
        spans.append([name, _now(), 0.0, stack[-1] if stack else -1])
        stack.append(i)
        try:
            yield
        finally:
            spans[i][2] = _now()
            stack.pop()

    def _timed(self, fn, name, site, measure):
        spans, stack, counts, sites = self.spans, self._stack, self.counts, self.sites

        def wrapper(*args, **kwargs):
            sites[site] += 1
            counts[name] += 1
            if measure is not None:
                counts[f"{name}.units"] += measure(*args, **kwargs)
            i = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(i)
            spans[i][1] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i][2] = _now()
                stack.pop()

        return wrapper

    def _counted(self, fn, name, site):
        counts, sites = self.counts, self.sites

        def wrapper(*args, **kwargs):
            sites[site] += 1
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ------------------------------------------------------

    def wrap(self, target, key: str, name: str, *, timed: bool = True, measure=None,
             site: str | None = None) -> None:
        """Replace ``target.key`` (or ``target[key]`` for a dict) by a wrapper.

        Timed wrappers record a span named ``name``; counted ones only bump
        the counts. ``measure(*args, **kwargs)`` adds a per-call amount to
        ``counts[name + ".units"]``. ``site`` names the binding and defaults
        to ``"<module>.<key>"``.
        """
        is_dict = isinstance(target, dict)
        fn = target[key] if is_dict else getattr(target, key)
        if site is None:
            site = f"{target.__name__.rsplit('.', 1)[-1]}.{key}"
        wrapped = (self._timed(fn, name, site, measure) if timed
                   else self._counted(fn, name, site))
        if is_dict:
            target[key] = wrapped
        else:
            setattr(target, key, wrapped)
        self.sites[site] += 0
        self._patches.append((target, key, fn, is_dict))

    def restore(self) -> None:
        """Put every wrapped binding back, newest first."""
        while self._patches:
            target, key, fn, is_dict = self._patches.pop()
            if is_dict:
                target[key] = fn
            else:
                setattr(target, key, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading ---------------------------------------------------------

    def first_start(self, names) -> float | None:
        starts = [s[1] for s in self.spans if s[0] in names]
        return min(starts) if starts else None


def _children(spans) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    return kids


def _duration(span) -> float:
    return span[2] - span[1]


def self_time(spans, name: str) -> float:
    """Total over spans called ``name`` of duration minus direct children."""
    kids = _children(spans)
    total = 0.0
    for i, s in enumerate(spans):
        if s[0] == name:
            total += _duration(s) - sum(_duration(spans[j]) for j in kids[i])
    return total


def total_time(spans, names, exclude=()) -> float:
    """Total duration of the outermost spans named in ``names``.

    Spans nested in another span of ``names`` are not counted twice. The
    outermost descendants named in ``exclude`` are subtracted.
    """
    names, exclude = set(names), set(exclude)
    kids = _children(spans)

    def covered(i: int) -> float:
        out = 0.0
        for j in kids[i]:
            out += _duration(spans[j]) if spans[j][0] in exclude else covered(j)
        return out

    total = 0.0
    for i, s in enumerate(spans):
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p >= 0:
            continue
        total += _duration(s) - (covered(i) if exclude else 0.0)
    return total


def split_by_ancestor(spans, name: str, ancestor: str) -> tuple[float, float]:
    """Total duration of spans ``name`` (outside, inside) an ``ancestor`` span."""
    inside = outside = 0.0
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        if p >= 0:
            inside += _duration(s)
        else:
            outside += _duration(s)
    return outside, inside
