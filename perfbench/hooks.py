"""The program's public entry points wrapped by the traced run, and the
per-layer metrics computed from their spans.

Only public names are wrapped, so the hooks outlive refactors of the
private code between them.  Span names are ``<layer>.<operation>``; the
layers are the program's packages (``traffic``, ``nprint``, ``core``,
``net``, ``serve``).
"""

from __future__ import annotations

import inspect
import time

from tracing import (
    Hook,
    Tracer,
    inclusive_times,
    percentile,
    self_times,
    span_hook,
    tail_supported,
)

#: (metric, unit) reported by every traced run, in BENCHMARK.json order
PER_LAYER = (
    ("core.eps_s", "s"),
    ("core.eps_calls", "count"),
    ("core.eps_rows", "count"),
    ("core.eps_calls_per_step", "ratio"),
    ("core.ddim_s", "s"),
    ("core.ddim_steps", "count"),
    ("core.sample_s", "s"),
    ("core.sample_batches", "count"),
    ("core.codec_decode_s", "s"),
    ("core.guidance_s", "s"),
    ("core.postprocess_s", "s"),
    ("nprint.decode_s", "s"),
    ("core.staterepair_s", "s"),
    ("net.render_s", "s"),
    ("net.packets", "count"),
    ("net.pcap_write_s", "s"),
    ("net.pcap_bytes", "bytes"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p90", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_requests.mean", "count"),
    ("serve.batch_flows.mean", "count"),
    ("serve.execute_s", "s"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.failed", "count"),
    ("serve.generator_lag_ms.p90", "ms"),
    ("traffic.dataset_s", "s"),
    ("nprint.encode_s", "s"),
    ("core.codec_fit_s", "s"),
    ("core.train_s", "s"),
    ("core.train_steps_per_s", "1/s"),
    ("core.fit_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

#: span name -> the self-time metric it reports, for the timed phase
SELF_TIME = {
    "core.eps": "core.eps_s",
    "core.ddim": "core.ddim_s",
    "core.sample": "core.sample_s",
    "core.codec_decode": "core.codec_decode_s",
    "core.guidance": "core.guidance_s",
    "core.postprocess": "core.postprocess_s",
    "nprint.decode": "nprint.decode_s",
    "core.staterepair": "core.staterepair_s",
    "net.render": "net.render_s",
    "net.pcap_write": "net.pcap_write_s",
}

#: the same, for set-up
SETUP_SELF_TIME = {
    "traffic.dataset": "traffic.dataset_s",
    "nprint.encode": "nprint.encode_s",
    "core.codec_fit": "core.codec_fit_s",
    # fit minus encode and codec fit: the two training loops (and the
    # codec encode and class templates, under 1% of it)
    "core.fit": "core.train_s",
}

#: counters reported as they are
COUNTED = (
    "core.eps_calls",
    "core.eps_rows",
    "core.ddim_steps",
    "core.sample_batches",
    "net.packets",
    "net.pcap_bytes",
    "serve.batches",
    "serve.rejected",
    "serve.expired",
    "serve.failed",
)


class _ServeMarks:
    """When the dispatcher thread began its current batch."""

    batch_start = 0.0


def _ddim_hook(tracer: Tracer, original):
    """The sampler as one span, and the eps callable it is given as one
    span per call: forwards per step then read the same whichever
    inference engine built the callable."""
    signature = inspect.signature(original)
    eps_name = list(signature.parameters)[1]  # after self

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        eps_model = bound.arguments[eps_name]

        def eps(x_t, t):
            tracer.count("core.eps_calls")
            tracer.count("core.eps_rows", len(x_t))
            with tracer.span("core.eps"):
                return eps_model(x_t, t)

        bound.arguments[eps_name] = eps
        tracer.count("core.sample_batches")
        tracer.count("core.ddim_steps", int(bound.arguments.get("steps", 0)))
        with tracer.span("core.ddim"):
            return original(*bound.args, **bound.kwargs)

    return wrapper


def _render_hook(tracer: Tracer, original):
    def wrapper(*args, **kwargs):
        with tracer.span("net.render"):
            datas, stamps = original(*args, **kwargs)
        tracer.count("net.packets", len(datas))
        return datas, stamps

    return wrapper


def _write_many_hook(tracer: Tracer, original):
    def wrapper(self, datas, *args, **kwargs):
        with tracer.span("net.pcap_write"):
            written = original(self, datas, *args, **kwargs)
        # 16-byte record header per packet, then the packet bytes
        tracer.count("net.pcap_bytes", 16 * len(datas)
                     + sum(len(d) for d in datas))
        return written

    return wrapper


def _train_step_hook(tracer: Tracer, original):
    """Count training steps: one forward-noising batch per step, in both
    training engines."""

    def wrapper(*args, **kwargs):
        tracer.count("core.train_steps")
        return original(*args, **kwargs)

    return wrapper


def _coalesced_hook(marks: _ServeMarks):
    def make(tracer: Tracer, original):
        def wrapper(self, class_name, parts, *args, **kwargs):
            marks.batch_start = time.perf_counter()
            tracer.count("serve.batches")
            tracer.count("serve.batch_requests", len(parts))
            tracer.count("serve.batch_flows", sum(c for c, _ in parts))
            with tracer.span("serve.execute"):
                return original(self, class_name, parts, *args, **kwargs)

        return wrapper

    return make


def _submit_hook(marks: _ServeMarks):
    """Admission: refused requests, and each request's queue wait (from
    submit to the start of the batch that served it) or failure."""

    def make(tracer: Tracer, original):
        def wrapper(self, request, *args, **kwargs):
            submitted = time.perf_counter()
            try:
                with tracer.span("serve.submit"):
                    future = original(self, request, *args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "ServiceOverloaded":
                    tracer.count("serve.rejected")
                raise

            def done(f):
                # Runs on the dispatcher thread right after the batch,
                # before it starts the next one.
                exc = f.exception()
                if exc is None:
                    tracer.sample(
                        "serve.queue_wait_ms",
                        (request.request_id,
                         (marks.batch_start - submitted) * 1e3),
                    )
                elif type(exc).__name__ == "RequestExpired":
                    tracer.count("serve.expired")
                else:
                    tracer.count("serve.failed")

            future.add_done_callback(done)
            return future

        return wrapper

    return make


def repro_hooks() -> list[Hook]:
    marks = _ServeMarks()
    return [
        Hook("repro.traffic.dataset:build_service_recognition_dataset",
             span_hook("traffic.dataset"), ("traffic.dataset_s",)),
        Hook("repro.nprint.encoder:encode_flows",
             span_hook("nprint.encode"), ("nprint.encode_s",)),
        Hook("repro.core.autoencoder:LatentCodec.fit",
             span_hook("core.codec_fit"), ("core.codec_fit_s",)),
        Hook("repro.core.pipeline:TextToTrafficPipeline.fit",
             span_hook("core.fit"),
             ("core.fit_s", "core.train_s", "core.train_steps_per_s")),
        Hook("repro.core.ddpm:GaussianDiffusion.sample_training_batch",
             _train_step_hook, ("core.train_steps_per_s",)),
        Hook("repro.core.pipeline:TextToTrafficPipeline.sample_latents",
             span_hook("core.sample"), ("core.sample_s",)),
        Hook("repro.core.ddim:DDIMSampler.sample", _ddim_hook,
             ("core.ddim_s", "core.ddim_steps", "core.sample_batches",
              "core.eps_s", "core.eps_calls", "core.eps_rows",
              "core.eps_calls_per_step")),
        Hook("repro.core.autoencoder:LatentCodec.decode",
             span_hook("core.codec_decode"), ("core.codec_decode_s",)),
        Hook("repro.core.controlnet:apply_structure_guidance",
             span_hook("core.guidance"), ("core.guidance_s",)),
        Hook("repro.core.postprocess:matrix_to_flow",
             span_hook("core.postprocess"), ("core.postprocess_s",)),
        Hook("repro.nprint.decoder:decode_flow",
             span_hook("nprint.decode"), ("nprint.decode_s",)),
        Hook("repro.core.staterepair:repair_flows_state",
             span_hook("core.staterepair"), ("core.staterepair_s",)),
        Hook("repro.net.packet:render_flows", _render_hook,
             ("net.render_s", "net.packets")),
        Hook("repro.net.pcap:PcapWriter.write_many", _write_many_hook,
             ("net.pcap_write_s", "net.pcap_bytes")),
        Hook("repro.core.pipeline:TextToTrafficPipeline.generate_coalesced",
             _coalesced_hook(marks),
             ("serve.batches", "serve.batch_requests.mean",
              "serve.batch_flows.mean", "serve.execute_s",
              "serve.queue_wait_ms.p50", "serve.queue_wait_ms.p90")),
        Hook("repro.serve.service:GenerationService.submit",
             _submit_hook(marks),
             ("serve.rejected", "serve.expired", "serve.failed",
              "serve.queue_wait_ms.p50", "serve.queue_wait_ms.p90")),
    ]


def _tail(samples: list[float], q: float) -> float:
    return percentile(samples, q) if samples else 0.0


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced set-up (dataset synthesis + fit)."""
    own = self_times(tracer.spans)
    metrics = {metric: own.get(span, 0.0)
               for span, metric in SETUP_SELF_TIME.items()}
    train_s = metrics["core.train_s"]
    steps = tracer.counts["core.train_steps"]
    metrics["core.train_steps_per_s"] = steps / train_s if train_s else 0.0
    metrics["core.fit_s"] = inclusive_times(tracer.spans).get("core.fit", 0.0)
    return metrics


def timed_metrics(
    tracer: Tracer,
    wall: float,
    overhead: float,
    phase_a_ids: set[int] | None = None,
    generator_lags_ms: list[float] | None = None,
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced timed phase, and notes on tails the
    sample cannot support.

    ``wall`` is the traced phase's wall time and ``overhead`` its
    slowdown against the same work with no hooks installed.
    """
    own = self_times(tracer.spans)
    total = inclusive_times(tracer.spans)
    counts = tracer.counts
    metrics = {metric: own.get(span, 0.0)
               for span, metric in SELF_TIME.items()}
    metrics.update({name: float(counts[name]) for name in COUNTED})
    steps = counts["core.ddim_steps"]
    metrics["core.eps_calls_per_step"] = (
        counts["core.eps_calls"] / steps if steps else 0.0
    )
    batches = counts["serve.batches"]
    metrics["serve.batch_requests.mean"] = (
        counts["serve.batch_requests"] / batches if batches else 0.0
    )
    metrics["serve.batch_flows.mean"] = (
        counts["serve.batch_flows"] / batches if batches else 0.0
    )
    metrics["serve.execute_s"] = total.get("serve.execute", 0.0)
    notes = []
    waits = [ms for rid, ms in tracer.samples["serve.queue_wait_ms"]
             if phase_a_ids is None or rid in phase_a_ids]
    lags = generator_lags_ms or []
    for name, values in (("serve.queue_wait_ms", waits),
                         ("serve.generator_lag_ms", lags)):
        if values and not tail_supported(len(values), 90):
            notes.append(f"{name}.p90 rests on fewer than 10 samples "
                         f"({len(values)} in all)")
    metrics["serve.queue_wait_ms.p50"] = _tail(waits, 50)
    metrics["serve.queue_wait_ms.p90"] = _tail(waits, 90)
    metrics["serve.generator_lag_ms.p90"] = _tail(lags, 90)
    metrics["trace.wall_s"] = wall
    metrics["trace.coverage"] = sum(own.values()) / wall
    metrics["trace.overhead"] = overhead
    return metrics, notes
