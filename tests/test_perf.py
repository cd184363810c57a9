"""Unit tests for the perf instrumentation layer (repro.perf)."""

import sys
import threading
import time

import pytest

from repro import perf
from repro.perf import PerfRegistry


@pytest.fixture()
def registry():
    return PerfRegistry()


class TestCounters:
    def test_incr_and_count(self, registry):
        assert registry.count("x") == 0
        assert registry.incr("x") == 1
        assert registry.incr("x", 4) == 5
        assert registry.count("x") == 5

    def test_independent_names(self, registry):
        registry.incr("a")
        registry.incr("b", 2)
        assert registry.count("a") == 1
        assert registry.count("b") == 2


class TestTimers:
    def test_timer_accumulates(self, registry):
        for _ in range(3):
            with registry.timer("stage"):
                time.sleep(0.001)
        stat = registry.timers["stage"]
        assert stat.calls == 3
        assert stat.seconds >= 0.003
        assert stat.mean_seconds == pytest.approx(stat.seconds / 3)

    def test_timer_records_on_exception(self, registry):
        with pytest.raises(RuntimeError):
            with registry.timer("boom"):
                raise RuntimeError("boom")
        assert registry.timers["boom"].calls == 1

    def test_timed_decorator(self, registry):
        @registry.timed("square")
        def square(x):
            return x * x

        assert square(3) == 9
        assert square(4) == 16
        assert registry.timers["square"].calls == 2

    def test_timed_default_name(self, registry):
        @registry.timed()
        def named():
            return 1

        named()
        assert any("named" in key for key in registry.timers)


class TestLifecycle:
    def test_reset(self, registry):
        registry.incr("n")
        with registry.timer("t"):
            pass
        registry.reset()
        assert registry.counters == {}
        assert registry.timers == {}

    def test_snapshot_is_plain_data(self, registry):
        registry.incr("n", 2)
        with registry.timer("t"):
            pass
        snap = registry.snapshot()
        assert snap["counters"] == {"n": 2}
        assert snap["timers"]["t"]["calls"] == 1
        assert snap["timers"]["t"]["seconds"] >= 0

    def test_merge(self, registry):
        other = PerfRegistry()
        registry.incr("n", 1)
        other.incr("n", 2)
        with other.timer("t"):
            pass
        registry.merge(other)
        assert registry.count("n") == 3
        assert registry.timers["t"].calls == 1

    def test_render_contains_entries(self, registry):
        registry.incr("denoiser.forward", 7)
        with registry.timer("sample"):
            pass
        text = registry.render("report")
        assert "denoiser.forward" in text
        assert "sample" in text
        assert "7" in text

    def test_render_empty(self, registry):
        assert "(empty)" in registry.render()


class TestDefaultRegistry:
    def test_module_level_functions(self):
        before = perf.counter("test.unit.counter")
        perf.incr("test.unit.counter", 3)
        assert perf.counter("test.unit.counter") == before + 3
        with perf.timer("test.unit.timer"):
            pass
        assert perf.snapshot()["timers"]["test.unit.timer"]["calls"] >= 1
        assert "test.unit.counter" in perf.render()

    def test_get_registry_is_singleton(self):
        assert perf.get_registry() is perf.get_registry()


class TestThreadSafety:
    THREADS = 8
    INCREMENTS = 2000

    @pytest.fixture(autouse=True)
    def _frequent_switches(self):
        # Switch threads every microsecond so unlocked read-modify-writes
        # actually interleave.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(previous)

    def _hammer(self, registry, barrier, i):
        barrier.wait()
        for k in range(self.INCREMENTS):
            registry.incr("shared")
            registry.incr(f"own.{i}.{k}")  # new keys while others iterate
            registry.observe("latency", k * 1e-4)
            with registry.timer("stage"):
                pass
            with registry.timer(f"stage.{i}.{k}"):
                pass
            if k % 100 == 0:
                registry.merge_snapshot({"counters": {"merged": 1}})

    def test_concurrent_updates_give_exact_totals(self):
        registry = PerfRegistry()
        barrier = threading.Barrier(self.THREADS)
        threads = [
            threading.Thread(target=self._hammer, args=(registry, barrier, i))
            for i in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        total = self.THREADS * self.INCREMENTS
        assert registry.count("shared") == total
        assert registry.count("merged") == self.THREADS * (
            self.INCREMENTS // 100)
        assert registry.histogram("latency").count == total
        assert registry.snapshot()["timers"]["stage"]["calls"] == total

    def test_scrapes_during_updates_never_raise(self):
        from repro.serve.metrics import render_prometheus

        registry = PerfRegistry()
        barrier = threading.Barrier(self.THREADS + 1)
        errors = []
        writers = [
            threading.Thread(target=self._hammer, args=(registry, barrier, i))
            for i in range(self.THREADS)
        ]

        def scrape():
            barrier.wait()
            try:
                while any(t.is_alive() for t in writers):
                    render_prometheus(registry=registry)
                    registry.snapshot()
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        scraper = threading.Thread(target=scrape)
        for t in writers + [scraper]:
            t.start()
        for t in writers + [scraper]:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in writers + [scraper])
        assert errors == []
        text = render_prometheus(registry=registry)
        assert (f'repro_perf_counter_total{{name="shared"}} '
                f"{self.THREADS * self.INCREMENTS}") in text
