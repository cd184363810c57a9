"""In-memory span tracer, hook installation and the statistics maths.

A span records one call across a layer boundary: its name, start, end,
the span that was open on the same thread when it began (its parent),
and the thread.  Spans stay in memory until the run ends.  A layer's
self time is its spans' durations minus the time their direct children
cover; children on one thread nest strictly inside their parent, so
that is the sum of the children's durations.

Hooks replace a public name of the program with a wrapper for the
duration of a traced pass.  A name that no longer exists marks the
metrics it feeds absent, with the reason, instead of failing the run.
Nothing here imports the program: targets are resolved when installed.
"""

from __future__ import annotations

import importlib
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    thread: int


class Tracer:
    """Thread-safe store of spans, counters and samples."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.spans: list[Span] = []
            self.counts: Counter = Counter()
            self.samples: dict[str, list[float]] = defaultdict(list)

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        record = Span(name, time.perf_counter(), None, parent,
                      threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record.end = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: total duration minus the time direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    totals: dict[str, float] = {}
    for span, child in zip(spans, covered):
        totals[span.name] = (
            totals.get(span.name, 0.0) + (span.end - span.start) - child
        )
    return totals


def inclusive_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: total duration, children included."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
    return totals


def percentile(values, q: float) -> float:
    """The ``q``-th percentile by linear interpolation between ranks.

    Matches ``numpy.percentile``'s default method.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile
    rank, i.e. how many observations the tail estimate rests on."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_supported(n: int, q: float, minimum: int = 10) -> bool:
    """True when at least ``minimum`` samples lie beyond percentile ``q``."""
    return n > 0 and samples_beyond(n, q) >= minimum


@dataclass(frozen=True)
class Hook:
    """One wrapped public name.

    ``target`` is ``"module:name"`` or ``"module:Class.method"``.
    ``make(tracer, original)`` returns the wrapper.  ``metrics`` are the
    per-layer metrics this hook feeds, marked absent when it cannot be
    installed.
    """

    target: str
    make: Callable
    metrics: tuple[str, ...]


def span_hook(name: str) -> Callable:
    """Wrapper factory: time every call as a span called ``name``."""

    def make(tracer: Tracer, original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        return wrapper

    return make


_INHERITED = object()


class Installation:
    """Hooks in place; :meth:`remove` puts every original back."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.absent: dict[str, str] = {}

    def patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def install(tracer: Tracer, hooks, package: str = "repro") -> Installation:
    """Wrap each hook's target.

    A module-level function is replaced in its defining module and in
    every module of ``package`` that imported it by name, so callers
    that did ``from module import name`` see the wrapper too.  A method
    is replaced on its class.
    """
    done = Installation()
    for hook in hooks:
        module_name, _, qualname = hook.target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError as exc:
            for metric in hook.metrics:
                done.absent[metric] = f"{hook.target}: {exc}"
            continue
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            for metric in hook.metrics:
                done.absent[metric] = f"{hook.target} not found"
            continue
        wrapper = hook.make(tracer, original)
        if path:
            done.patch(owner, attr, wrapper)
            continue
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for ref, value in list(vars(module).items()):
                if value is original:
                    done.patch(module, ref, wrapper)
    return done
