"""Scoped timers and counters for the hot paths.

The §4 open challenge is generative speed; you cannot keep a hot loop
fast without measuring it.  This module provides the minimal
observability layer the pipeline, the encoder tier, and the experiment
harness share:

* :func:`counter` / :func:`incr` — named monotonic counters
  (denoiser forwards, prompt encodes, flows encoded, ...);
* :func:`timer` — a context manager accumulating wall-clock seconds and
  call counts per named stage;
* :func:`timed` — a decorator form of :func:`timer`;
* :class:`PerfRegistry` — the store behind all of the above, with
  :meth:`~PerfRegistry.snapshot` for programmatic access.

Everything funnels into one module-level default registry so that a
caller (the CLI, ``experiments/speed.py``, a regression test) can
``reset()`` before a workload, run it, and read exact counts after —
e.g. *denoiser forwards per DDIM step* becomes an assertable quantity.

Instrumentation must never change behaviour: counters are plain integer
adds, timers are two ``perf_counter`` calls, and there is no sampling,
no threads, no I/O.  A registry is shared by every thread that records
into it (the serving dispatcher, HTTP scrapes), so each read-modify-write
and each read of the whole registry holds its lock.
"""

from __future__ import annotations

import bisect
import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: default histogram bucket upper bounds (seconds) — the classic
#: Prometheus 1-2.5-5 latency ladder
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


@dataclass
class HistogramStat:
    """Cumulative-bucket histogram (Prometheus ``le`` semantics).

    ``bounds`` are the inclusive upper bounds of the finite buckets;
    ``counts`` has one extra slot for the ``+Inf`` overflow bucket.
    """

    bounds: tuple[float, ...]
    counts: list[int]
    total: float = 0.0

    @classmethod
    def with_bounds(cls, bounds) -> "HistogramStat":
        bounds = tuple(float(b) for b in bounds)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        return cls(bounds=bounds, counts=[0] * (len(bounds) + 1))

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value

    @property
    def count(self) -> int:
        return sum(self.counts)

    @property
    def mean(self) -> float:
        n = self.count
        return self.total / n if n else 0.0

    def cumulative(self) -> list[int]:
        """Running bucket totals, one per finite bound plus ``+Inf``."""
        out: list[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q`` quantile.

        A coarse estimate (bucket resolution); the overflow bucket
        reports the largest finite bound.
        """
        n = self.count
        if n == 0:
            return 0.0
        rank = q * n
        for bound, running in zip(self.bounds, self.cumulative()):
            if running >= rank:
                return bound
        return self.bounds[-1] if self.bounds else 0.0

    def merge(self, other: "HistogramStat") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} != {other.bounds}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total


@dataclass
class TimerStat:
    """Accumulated wall-clock for one named stage."""

    calls: int = 0
    seconds: float = 0.0

    def add(self, elapsed: float) -> None:
        self.calls += 1
        self.seconds += elapsed

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0


@dataclass
class PerfRegistry:
    """A named bag of counters and stage timers, safe to share across
    threads: updates and whole-registry reads hold ``_lock``."""

    counters: dict[str, int] = field(default_factory=dict)
    timers: dict[str, TimerStat] = field(default_factory=dict)
    histograms: dict[str, HistogramStat] = field(default_factory=dict)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    # -- counters -----------------------------------------------------------
    def incr(self, name: str, n: int = 1) -> int:
        """Add ``n`` to counter ``name`` (creating it at 0); returns the total."""
        with self._lock:
            total = self.counters.get(name, 0) + n
            self.counters[name] = total
        return total

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counters.get(name, 0)

    # -- timers -------------------------------------------------------------
    @contextmanager
    def timer(self, name: str):
        """Accumulate the wall-clock of the ``with`` body under ``name``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                stat = self.timers.get(name)
                if stat is None:
                    stat = self.timers[name] = TimerStat()
                stat.add(elapsed)

    def timed(self, name: str | None = None):
        """Decorator: time every call of the wrapped function.

        Uses ``name`` or the function's qualified name as the stage key.
        """

        def decorate(fn):
            key = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.timer(key):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    # -- histograms ---------------------------------------------------------
    def observe(
        self, name: str, value: float, buckets=DEFAULT_BUCKETS
    ) -> None:
        """Record ``value`` into histogram ``name``.

        ``buckets`` (finite inclusive upper bounds) only applies when the
        histogram is first created; later observations reuse the existing
        bounds so merges stay well-defined.
        """
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = HistogramStat.with_bounds(
                    buckets)
            hist.observe(value)

    def histogram(self, name: str) -> HistogramStat | None:
        """A consistent copy of histogram ``name`` (None if never observed)."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                return None
            return HistogramStat(hist.bounds, list(hist.counts), hist.total)

    # -- lifecycle / reporting ----------------------------------------------
    def reset(self) -> None:
        """Drop every counter, timer and histogram."""
        with self._lock:
            self.counters.clear()
            self.timers.clear()
            self.histograms.clear()

    def snapshot(self) -> dict:
        """A plain-dict copy (JSON-serialisable) of the current state."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "timers": {
                    name: {"calls": t.calls, "seconds": t.seconds}
                    for name, t in self.timers.items()
                },
                "histograms": {
                    name: {
                        "bounds": list(h.bounds),
                        "counts": list(h.counts),
                        "total": h.total,
                    }
                    for name, h in self.histograms.items()
                },
            }

    def merge(self, other: "PerfRegistry") -> None:
        """Fold another registry's totals into this one."""
        self.merge_snapshot(other.snapshot())

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "PerfRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict.

        The inverse of :meth:`snapshot`; lets a worker process ship its
        perf totals back to the parent as plain JSON-serialisable data.
        """
        registry = cls()
        registry.merge_snapshot(snapshot)
        return registry

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict (e.g. from a child process) in."""
        with self._lock:
            for name, n in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + n
            for name, stat in snapshot.get("timers", {}).items():
                mine = self.timers.get(name)
                if mine is None:
                    mine = self.timers[name] = TimerStat()
                mine.calls += int(stat["calls"])
                mine.seconds += float(stat["seconds"])
            for name, h in snapshot.get("histograms", {}).items():
                hist = HistogramStat(
                    bounds=tuple(float(b) for b in h["bounds"]),
                    counts=[int(c) for c in h["counts"]],
                    total=float(h["total"]),
                )
                mine_h = self.histograms.get(name)
                if mine_h is None:
                    self.histograms[name] = hist
                else:
                    mine_h.merge(hist)

    def render(self, title: str = "perf report") -> str:
        """A fixed-width text report of timers then counters."""
        return PerfRegistry.from_snapshot(self.snapshot())._render(title)

    def _render(self, title: str) -> str:
        lines = [title, "=" * len(title)]
        if self.timers:
            lines.append("")
            lines.append(f"{'stage':<38} {'calls':>8} {'seconds':>10} {'mean ms':>10}")
            for name in sorted(self.timers):
                t = self.timers[name]
                lines.append(
                    f"{name:<38} {t.calls:>8} {t.seconds:>10.4f} "
                    f"{t.mean_seconds * 1e3:>10.3f}"
                )
        if self.counters:
            lines.append("")
            lines.append(f"{'counter':<38} {'value':>8}")
            for name in sorted(self.counters):
                lines.append(f"{name:<38} {self.counters[name]:>8}")
        if self.histograms:
            lines.append("")
            lines.append(
                f"{'histogram':<38} {'count':>8} {'mean':>10} "
                f"{'p50':>10} {'p99':>10}"
            )
            for name in sorted(self.histograms):
                h = self.histograms[name]
                lines.append(
                    f"{name:<38} {h.count:>8} {h.mean:>10.4f} "
                    f"{h.quantile(0.5):>10.4f} {h.quantile(0.99):>10.4f}"
                )
        if not self.timers and not self.counters and not self.histograms:
            lines.append("(empty)")
        return "\n".join(lines)


#: the process-wide default registry used by the convenience functions
_DEFAULT = PerfRegistry()


def get_registry() -> PerfRegistry:
    """The module-level default registry."""
    return _DEFAULT


def incr(name: str, n: int = 1) -> int:
    """Increment a counter in the default registry."""
    return _DEFAULT.incr(name, n)


def observe(name: str, value: float, buckets=DEFAULT_BUCKETS) -> None:
    """Record a histogram observation in the default registry."""
    _DEFAULT.observe(name, value, buckets)


def histogram(name: str) -> HistogramStat | None:
    """Read a histogram from the default registry."""
    return _DEFAULT.histogram(name)


def counter(name: str) -> int:
    """Read a counter from the default registry."""
    return _DEFAULT.count(name)


def timer(name: str):
    """Scoped timer against the default registry (context manager)."""
    return _DEFAULT.timer(name)


def timed(name: str | None = None):
    """Decorator form of :func:`timer` against the default registry."""
    return _DEFAULT.timed(name)


def reset() -> None:
    """Reset the default registry."""
    _DEFAULT.reset()


def snapshot() -> dict:
    """Snapshot the default registry."""
    return _DEFAULT.snapshot()


def merge_snapshot(snap: dict) -> None:
    """Fold a snapshot dict (e.g. from a worker process) into the default."""
    _DEFAULT.merge_snapshot(snap)


def render(title: str = "perf report") -> str:
    """Render the default registry as text."""
    return _DEFAULT.render(title)
