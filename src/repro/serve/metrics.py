"""Prometheus text exposition for the serving tier.

Renders the process's :mod:`repro.perf` registry — plus live service
gauges — in text format 0.0.4, the format every Prometheus scraper and
most observability stacks ingest.  No client library: the format is
eleven lines of spec (``# HELP`` / ``# TYPE`` comments, one sample per
line, cumulative ``le`` histogram buckets) and the repo ships zero
dependencies beyond NumPy.

Name map (pinned by ``tests/test_serve_metrics.py``):

* ``repro_serve_requests_total{status=...}`` — admission/outcome
  counters (received, completed, rejected, rejected_closed, expired,
  cancelled, error);
* ``repro_serve_batches_total`` / ``repro_serve_batched_flows_total`` —
  coalescing volume;
* ``repro_serve_queue_depth`` / ``repro_serve_models_loaded`` /
  ``repro_serve_draining`` — live gauges;
* ``repro_serve_*`` histograms — request latency and batch shapes;
* ``repro_perf_counter_total{name=...}`` and
  ``repro_perf_timer_seconds_total{stage=...}`` /
  ``repro_perf_timer_calls_total{stage=...}`` — the generic perf
  registry, so every existing counter (denoiser forwards, cache hits,
  ...) is scrapeable without a serve-specific mapping.
"""

from __future__ import annotations

from repro import perf
from repro.perf import HistogramStat, PerfRegistry

#: perf counter -> ``status`` label of repro_serve_requests_total
_STATUS_COUNTERS = {
    "serve.requests": "received",
    "serve.completed": "completed",
    "serve.rejected": "rejected",
    "serve.rejected_closed": "rejected_closed",
    "serve.expired": "expired",
    "serve.cancelled": "cancelled",
    "serve.errors": "error",
}

#: perf histogram -> exported metric name
_HISTOGRAMS = {
    "serve.request_latency_seconds": "repro_serve_request_latency_seconds",
    "serve.batch_requests": "repro_serve_batch_requests",
    "serve.batch_flows": "repro_serve_batch_flows",
}


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _fmt(value: float) -> str:
    # Integral values print as integers; Prometheus parses both.
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _histogram_lines(name: str, hist: HistogramStat, out: list[str]) -> None:
    out.append(f"# TYPE {name} histogram")
    running = 0
    for bound, count in zip(hist.bounds, hist.counts):
        running += count
        out.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {running}')
    out.append(f'{name}_bucket{{le="+Inf"}} {hist.count}')
    out.append(f"{name}_sum {repr(float(hist.total))}")
    out.append(f"{name}_count {hist.count}")


def render_prometheus(service=None, registry: PerfRegistry | None = None,
                      store=None) -> str:
    """The /metrics payload: serve metrics + the generic perf registry."""
    reg = registry if registry is not None else perf.get_registry()
    out: list[str] = []

    out.append(
        "# HELP repro_serve_requests_total Generation requests by outcome."
    )
    out.append("# TYPE repro_serve_requests_total counter")
    for counter_name, status in _STATUS_COUNTERS.items():
        out.append(
            f'repro_serve_requests_total{{status="{status}"}} '
            f"{reg.count(counter_name)}"
        )

    out.append("# HELP repro_serve_batches_total Coalesced dispatch batches.")
    out.append("# TYPE repro_serve_batches_total counter")
    out.append(f"repro_serve_batches_total {reg.count('serve.batches')}")
    out.append(
        "# HELP repro_serve_batched_flows_total Flows served via batches."
    )
    out.append("# TYPE repro_serve_batched_flows_total counter")
    out.append(
        f"repro_serve_batched_flows_total {reg.count('serve.batched_flows')}"
    )

    if service is not None:
        out.append(
            "# HELP repro_serve_queue_depth Requests admitted, not "
            "yet dispatched."
        )
        out.append("# TYPE repro_serve_queue_depth gauge")
        out.append(f"repro_serve_queue_depth {service.pending()}")
        out.append("# HELP repro_serve_draining 1 while refusing admission.")
        out.append("# TYPE repro_serve_draining gauge")
        out.append(f"repro_serve_draining {int(service.draining)}")
    if store is not None:
        out.append(
            "# HELP repro_serve_models_loaded Pipelines resident in "
            "the model store."
        )
        out.append("# TYPE repro_serve_models_loaded gauge")
        out.append(f"repro_serve_models_loaded {len(store)}")

    for hist_name, metric in _HISTOGRAMS.items():
        hist = reg.histogram(hist_name)
        if hist is not None:
            _histogram_lines(metric, hist, out)

    # One consistent copy: other threads keep recording while we format.
    snap = reg.snapshot()
    counters, timers = snap["counters"], snap["timers"]
    out.append("# HELP repro_perf_counter_total repro.perf counters.")
    out.append("# TYPE repro_perf_counter_total counter")
    for name in sorted(counters):
        out.append(
            f'repro_perf_counter_total{{name="{_escape(name)}"}} '
            f"{counters[name]}"
        )

    out.append("# HELP repro_perf_timer_seconds_total repro.perf stage "
               "wall-clock.")
    out.append("# TYPE repro_perf_timer_seconds_total counter")
    for name in sorted(timers):
        out.append(
            f'repro_perf_timer_seconds_total{{stage="{_escape(name)}"}} '
            f"{repr(float(timers[name]['seconds']))}"
        )
    out.append("# HELP repro_perf_timer_calls_total repro.perf stage calls.")
    out.append("# TYPE repro_perf_timer_calls_total counter")
    for name in sorted(timers):
        out.append(
            f'repro_perf_timer_calls_total{{stage="{_escape(name)}"}} '
            f"{timers[name]['calls']}"
        )
    return "\n".join(out) + "\n"
