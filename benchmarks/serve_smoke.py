#!/usr/bin/env python
"""Serving-benchmark smoke runner: the traffic-generation service tier.

Measures request-level serving throughput — ``request -> sample ->
decode -> render -> pcap bytes`` — and writes a ``BENCH_serve.json``
artifact so CI (or a human) can diff requests/s and latency percentiles
against the recorded baseline:

* ``sequential`` — the pre-service path: every request is served one at
  a time by a direct ``generate_raw`` call with the request's derived
  RNG stream (what a one-shot CLI invocation per request would cost);
* ``batched``    — the service tier: a ``repro.serve`` HTTP server with
  an async request queue and micro-batched dispatch, driven by
  concurrent client threads.  Concurrent same-class requests coalesce
  into one denoiser forward per DDIM step.

Every request's RNG stream is derived from ``(server_seed, request_id)``
only, so both modes must produce byte-identical per-request pcap bodies;
the artifact records the cross-mode digest comparison
(``deterministic_vs_sequential``) and the run fails if it does not hold.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py --preset tiny
    PYTHONPATH=src python benchmarks/serve_smoke.py --preset quick \
        --modes sequential batched

The artifact keeps a ``baseline`` section per preset (the pre-service
sequential path, written the first time a preset is benchmarked, then
preserved verbatim) next to the ``current`` section (overwritten on
every run), plus the requests/s speedup of each current mode over the
baseline.
"""

from __future__ import annotations

# Pin BLAS/OpenMP thread pools before anything imports NumPy so the
# recorded numbers are machine-independent (see bench_env docstring).
import bench_env  # noqa: E402  (same directory as this script)

bench_env.pin_blas_threads()

import argparse
import hashlib
import io
import json
import os
import sys
import threading
import time
from pathlib import Path

#: serving presets are deliberately self-contained (not the experiment
#: presets): requests are small (a handful of flows each) because the
#: serving tier's job is many concurrent consumers, not bulk export.
SERVE_PRESETS: dict[str, dict] = {
    "tiny": {
        "requests": 48,
        "flows_per_request": 1,
        "clients": 12,
        "max_batch_flows": 48,
        "max_wait_ms": 20.0,
        "fit_flows_per_class": 10,
        "pipeline": dict(
            max_packets=8, latent_dim=24, hidden=48, blocks=2,
            timesteps=80, train_steps=120, controlnet_steps=50,
            ddim_steps=16, generation_batch=64, seed=0,
        ),
    },
    "quick": {
        "requests": 128,
        "flows_per_request": 1,
        "clients": 32,
        "max_batch_flows": 64,
        "max_wait_ms": 25.0,
        "fit_flows_per_class": 16,
        "pipeline": dict(
            max_packets=16, latent_dim=48, hidden=96, blocks=3,
            timesteps=120, train_steps=200, controlnet_steps=80,
            ddim_steps=48, generation_batch=256, seed=0,
        ),
    },
}

SERVE_CLASS = "netflix"


def _request_rng(server_seed: int, request_id: int):
    """Per-request RNG stream derived from (server seed, request id).

    Local copy of the serving tier's derivation (``repro.serve`` may not
    exist yet when the pre-service baseline is recorded); the salt must
    match ``repro.serve.request_rng``.
    """
    import numpy as np

    return np.random.default_rng([int(server_seed), 0x5E57E5,
                                  int(request_id)])


def _fit_pipeline(spec: dict, seed: int):
    from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
    from repro.traffic.dataset import generate_app_flows

    flows = []
    for app in ("netflix", "teams"):
        flows.extend(
            generate_app_flows(app, spec["fit_flows_per_class"], seed=3)
        )
    config = PipelineConfig(**{**spec["pipeline"], "seed": seed})
    return TextToTrafficPipeline(config).fit(flows)


def _render_pcap(flows) -> bytes:
    from repro.net.packet import PacketRenderer, render_flows
    from repro.net.pcap import PcapWriter

    buf = io.BytesIO()
    writer = PcapWriter(buf)
    datas, stamps = render_flows(flows, PacketRenderer())
    writer.write_many(datas, stamps)
    return buf.getvalue()


def _percentile_ms(latencies: list[float], q: float) -> float:
    ordered = sorted(latencies)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return round(ordered[idx] * 1e3, 3)


def _section(mode: str, spec: dict, elapsed: float,
             latencies: list[float]) -> dict:
    n = spec["requests"]
    return {
        "mode": mode,
        "requests": n,
        "flows_per_request": spec["flows_per_request"],
        "seconds": round(elapsed, 3),
        "requests_per_second": round(n / elapsed, 3),
        "flows_per_second": round(
            n * spec["flows_per_request"] / elapsed, 3),
        "latency_p50_ms": _percentile_ms(latencies, 0.50),
        "latency_p99_ms": _percentile_ms(latencies, 0.99),
    }


def _run_sequential(pipeline, spec: dict, seed: int):
    """Pre-service path: one ``generate_raw`` call per request, in order."""
    digests: dict[int, str] = {}
    latencies: list[float] = []
    start = time.perf_counter()
    for rid in range(spec["requests"]):
        t0 = time.perf_counter()
        result = pipeline.generate_raw(
            SERVE_CLASS, spec["flows_per_request"],
            rng=_request_rng(seed, rid),
        )
        body = _render_pcap(result.flows)
        latencies.append(time.perf_counter() - t0)
        digests[rid] = hashlib.sha256(body).hexdigest()
    elapsed = time.perf_counter() - start
    return _section("sequential", spec, elapsed, latencies), digests


def _run_batched(pipeline, spec: dict, seed: int):
    """Service tier: HTTP server + concurrent clients, micro-batching."""
    import http.client
    import urllib.request

    from repro import perf
    from repro.serve.http import TrafficServer
    from repro.serve.service import GenerationService

    perf.reset()
    service = GenerationService(
        pipeline=pipeline,
        server_seed=seed,
        max_batch_flows=spec["max_batch_flows"],
        max_wait=spec["max_wait_ms"] / 1e3,
        max_queue=spec["requests"] + spec["clients"],
    )
    server = TrafficServer(("127.0.0.1", 0), service)
    server.start_background()
    host, port = server.server_address[:2]

    digests: dict[int, str] = {}
    latencies: list[float] = []
    lock = threading.Lock()
    rid_iter = iter(range(spec["requests"]))
    errors: list[BaseException] = []

    def _client() -> None:
        # One keep-alive connection per client thread (the realistic
        # consumer shape; also what keeps connection churn off the
        # measurement).
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            while True:
                with lock:
                    rid = next(rid_iter, None)
                if rid is None:
                    return
                payload = json.dumps({
                    "class": SERVE_CLASS,
                    "count": spec["flows_per_request"],
                    "request_id": rid,
                }).encode()
                t0 = time.perf_counter()
                try:
                    conn.request(
                        "POST", "/generate", body=payload,
                        headers={"Content-Type": "application/json"},
                    )
                    resp = conn.getresponse()
                    body = resp.read()
                    if resp.status != 200:
                        raise RuntimeError(
                            f"request {rid}: HTTP {resp.status} "
                            f"{body[:200]!r}"
                        )
                except BaseException as exc:  # noqa: BLE001 - recorded
                    with lock:
                        errors.append(exc)
                    return
                elapsed = time.perf_counter() - t0
                with lock:
                    latencies.append(elapsed)
                    digests[rid] = hashlib.sha256(body).hexdigest()
        finally:
            conn.close()

    threads = [threading.Thread(target=_client)
               for _ in range(spec["clients"])]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start

    metrics_url = f"http://{host}:{port}/metrics"
    with urllib.request.urlopen(metrics_url, timeout=30) as resp:
        metrics_text = resp.read().decode()
    metrics_ok = "repro_serve_requests_total" in metrics_text

    server.stop()
    service.shutdown(drain=True)
    if errors:
        raise SystemExit(f"batched mode client errors: {errors[:3]!r}")

    batches = perf.counter("serve.batches")
    section = _section("batched", spec, elapsed, latencies)
    section.update({
        "clients": spec["clients"],
        "max_batch_flows": spec["max_batch_flows"],
        "max_wait_ms": spec["max_wait_ms"],
        "batches": batches,
        "batched_requests": perf.counter("serve.batched_requests"),
        "requests_per_batch": round(
            perf.counter("serve.batched_requests") / batches, 3)
            if batches else 0.0,
        "metrics_scrape_ok": metrics_ok,
    })
    return section, digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--preset",
        default=os.environ.get("REPRO_BENCH_PRESET", "tiny"),
        choices=sorted(SERVE_PRESETS),
        help="serving preset; default from REPRO_BENCH_PRESET or 'tiny'",
    )
    parser.add_argument(
        "--modes", nargs="*", default=["sequential", "batched"],
        choices=["sequential", "batched"],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_serve.json"),
    )
    parser.add_argument(
        "--rebaseline", action="store_true",
        help="overwrite the stored baseline with this run's sequential "
             "numbers",
    )
    args = parser.parse_args(argv)

    spec = SERVE_PRESETS[args.preset]
    print(f"fitting pipeline ({args.preset} preset) ...", flush=True)
    pipeline = _fit_pipeline(spec, seed=args.seed)

    current: dict = {
        "preset": args.preset,
        "infer_mode": "compiled",
        "server_seed": args.seed,
        "modes": {},
    }
    digests_by_mode: dict[str, dict[int, str]] = {}
    for mode in args.modes:
        print(f"\n##### mode: {mode} ({spec['requests']} requests x "
              f"{spec['flows_per_request']} flows) #####", flush=True)
        runner = _run_sequential if mode == "sequential" else _run_batched
        section, digests = runner(pipeline, spec, args.seed)
        current["modes"][mode] = section
        digests_by_mode[mode] = digests
        print(f"##### {mode}: {section['seconds']}s "
              f"({section['requests_per_second']} req/s, "
              f"p99 {section['latency_p99_ms']} ms) #####")

    if len(digests_by_mode) > 1:
        reference = digests_by_mode["sequential"]
        identical = all(d == reference
                        for d in digests_by_mode.values())
        current["deterministic_vs_sequential"] = identical
        if not identical:
            print("FATAL: per-request pcap bytes differ across modes",
                  file=sys.stderr)

    path = Path(args.out)
    doc = {}
    if path.exists():
        doc = json.loads(path.read_text())
    entry = doc.setdefault(args.preset, {})
    if ("baseline" not in entry or args.rebaseline) \
            and "sequential" in current["modes"]:
        entry["baseline"] = {
            **current["modes"]["sequential"],
            "infer_mode": current["infer_mode"],
            "note": "pre-service one-request-at-a-time path at "
                    "baselining time",
        }
    entry["current"] = current
    base = entry.get("baseline", {}).get("requests_per_second", 0)
    if base:
        entry["speedup_vs_baseline"] = {
            mode: round(section["requests_per_second"] / base, 3)
            for mode, section in current["modes"].items()
        }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {path}")
    for mode, x in entry.get("speedup_vs_baseline", {}).items():
        print(f"  {mode}: {x:.2f}x vs baseline sequential")
    return 1 if current.get("deterministic_vs_sequential") is False else 0


if __name__ == "__main__":
    sys.exit(main())
