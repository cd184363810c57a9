"""Unit tests for the tracer's self-time and tail-percentile maths.

    python3 -m pytest perfbench/test_tracing.py
"""

import random
import threading

import numpy as np
import pytest

from tracing import (
    Hook,
    Span,
    Tracer,
    inclusive_times,
    install,
    percentile,
    samples_beyond,
    self_times,
    span_hook,
    tail_supported,
)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("outer", 0.0, 10.0, None, 1),
        Span("mid", 1.0, 7.0, 0, 1),
        Span("leaf", 2.0, 5.0, 1, 1),
        Span("mid", 8.0, 9.0, 0, 1),
    ]
    own = self_times(spans)
    assert own["outer"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own["mid"] == pytest.approx((6.0 - 3.0) + 1.0)
    assert own["leaf"] == pytest.approx(3.0)
    total = inclusive_times(spans)
    assert total["mid"] == pytest.approx(7.0)
    # Self times of one thread's nested spans add up to the root span.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_keeps_threads_apart():
    spans = [
        Span("a", 0.0, 4.0, None, 1),
        Span("b", 1.0, 3.0, None, 2),  # overlaps "a" on another thread
    ]
    assert self_times(spans) == {"a": 4.0, "b": 2.0}


def test_tracer_records_parents_per_thread():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass

        def other():
            with tracer.span("other"):
                pass

        worker = threading.Thread(target=other)
        worker.start()
        worker.join(timeout=5)
    assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == tracer.spans.index(by_name["outer"])
    assert by_name["other"].parent is None
    own = self_times(tracer.spans)
    assert own["outer"] + own["inner"] == pytest.approx(
        by_name["outer"].end - by_name["outer"].start
    )


@pytest.mark.parametrize("n", [1, 2, 7, 100, 201, 1000])
@pytest.mark.parametrize("q", [0, 50, 90, 95, 99, 100])
def test_percentile_matches_numpy(n, q):
    values = [random.Random(n).random() for _ in range(n)]
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_rejects_empty_sample():
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n,q,beyond", [
    (1000, 99, 10), (902, 99, 10), (901, 99, 9),
    (200, 95, 10), (182, 95, 10), (181, 95, 9),
    (100, 50, 50), (1, 50, 0),
])
def test_samples_beyond_counts_the_tail(n, q, beyond):
    assert samples_beyond(n, q) == beyond
    ranked = sorted(range(n))
    cut = percentile(ranked, q)
    assert sum(1 for v in ranked if v > cut) == beyond


def test_tail_supported_needs_ten_beyond():
    assert tail_supported(1000, 99)
    assert not tail_supported(901, 99)
    assert tail_supported(200, 95)
    assert not tail_supported(0, 50)


def test_install_wraps_importers_and_restores(tmp_path, monkeypatch):
    package = tmp_path / "fakepkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "lib.py").write_text(
        "def work(x):\n    return x + 1\n"
        "class Thing:\n    def run(self):\n        return work(1)\n"
    )
    (package / "user.py").write_text(
        "from fakepkg.lib import work\n"
        "def call():\n    return work(2)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.lib as lib
    import fakepkg.user as user

    tracer = Tracer()
    hooks = [
        Hook("fakepkg.lib:work", span_hook("lib.work"), ("lib.work_s",)),
        Hook("fakepkg.lib:Thing.run", span_hook("lib.run"), ("lib.run_s",)),
        Hook("fakepkg.lib:gone", span_hook("lib.gone"), ("lib.gone_s",)),
        Hook("fakepkg.missing:f", span_hook("x"), ("x_s",)),
    ]
    installed = install(tracer, hooks, package="fakepkg")
    assert user.call() == 3
    assert lib.Thing().run() == 2
    names = [s.name for s in tracer.spans]
    assert names.count("lib.work") == 2 and names.count("lib.run") == 1
    assert set(installed.absent) == {"lib.gone_s", "x_s"}
    installed.remove()
    tracer.reset()
    assert user.call() == 3 and lib.Thing().run() == 2
    assert tracer.spans == []
    assert "run" in vars(lib.Thing)


def test_metric_lists_match_benchmark_json():
    import json
    from pathlib import Path

    import hooks
    import run

    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text()
    )
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(hooks.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
