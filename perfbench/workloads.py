"""Set-up, the three workloads, and the gates that check their output.

Every workload drives the program through its public API the way a user
does, and fits the same model in set-up: the Table 1 dataset at
``scale=0.005`` (123 flows, 11 classes) and the ``repro fit`` defaults,
which is what ``repro dataset`` + ``repro fit`` produce.
"""

from __future__ import annotations

import hashlib
import io
import queue
import statistics
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import pipeline as core_pipeline
from repro.net import packet as net_packet
from repro.net.pcap import PcapReader, PcapWriter
from repro.serve import (
    GenerateRequest,
    GenerationService,
    RequestExpired,
    ServiceOverloaded,
    request_rng,
)
from repro.traffic import dataset as traffic_dataset

from tracing import percentile, samples_beyond

DATASET_SCALE = 0.005
FIT_CONFIG = dict(max_packets=16, train_steps=600, controlnet_steps=200)

#: classes an export cycles over, from a seeded starting point; each has
#: one dominant transport in the training flows (TCP or UDP)
EXPORT_CLASSES = ("netflix", "teams", "amazon", "zoom")
#: flows per export: one sampler batch of the default generation batch
EXPORT_FLOWS = 256
#: an export taking longer than this misses its limit
EXPORT_SLO_MS = 5_000.0

#: served classes and their shares of requests
SERVE_MIX = (("netflix", 0.6), ("teams", 0.3), ("facebook", 0.1))
#: phase A arrival rate, requests/s.  Small requests barely coalesce at
#: this rate and one takes about 70 ms on 2 cores, so the dispatcher is
#: about half busy.  At 10/s it was three quarters busy and latency
#: spread 0.25-0.5 of its median from run to run; at 20-30/s more.
SERVE_RATE = 8.0
#: share of the run's seconds given to phase A (the rest is phase B):
#: at 30 s, 168 requests, 16 of them beyond p90
PHASE_A_SHARE = 0.7
#: phase B requests outstanding per wave, below the service's max_queue
#: of 64.  A wave is submitted at once, so its batches hold the same
#: requests whatever the timing; a continuous closed loop's batches
#: follow arrival timing and its throughput spread twice as wide.
SERVE_WAVE = 24
#: phase B requests per second of its share of the run, about its
#: throughput, so phase B lasts about its share
PHASE_B_RATE = 35.0
#: a phase-A request slower than this, or refused or failed, is a miss
SERVE_SLO_MS = 1_000.0
#: served requests whose bytes are checked against direct generation
DETERMINISM_SAMPLE = 4
#: request ids of the untimed warm-up, apart from the timed ones
WARM_UP_IDS = 1 << 40
#: seconds to wait for any one request before giving up on the run
WAIT_LIMIT = 120.0

IPV4 = 4
PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_RAW = 101


@dataclass
class Model:
    pipeline: object
    dominant: dict[str, int]
    setup_s: float


@dataclass
class Tally:
    """Operations of one pass: export calls, or served requests."""

    attempted: int = 0
    rejected: int = 0
    expired: int = 0
    errors: int = 0

    @property
    def failed(self) -> int:
        return self.rejected + self.expired + self.errors


@dataclass
class Run:
    """One timed pass of a workload."""

    wall: float
    metrics: dict[str, float]
    tally: Tally
    problems: list[str]
    notes: list[str] = field(default_factory=list)
    units: int = 0
    phase_a_ids: set[int] | None = None
    generator_lags_ms: list[float] | None = None


def set_up() -> Model:
    """Dataset synthesis plus fit, timed as one."""
    start = time.perf_counter()
    data = traffic_dataset.build_service_recognition_dataset(
        scale=DATASET_SCALE
    )
    pipeline = core_pipeline.TextToTrafficPipeline(
        core_pipeline.PipelineConfig(**FIT_CONFIG)
    )
    pipeline.fit(data.flows)
    setup_s = time.perf_counter() - start
    protos: dict[str, Counter] = {}
    for flow in data.flows:
        protos.setdefault(flow.label, Counter()).update(
            p.ip.proto for p in flow.packets
        )
    dominant = {label: c.most_common(1)[0][0] for label, c in protos.items()}
    return Model(pipeline, dominant, setup_s)


def warm_up(model: Model, workload: str, seed: int) -> None:
    """Build what the first calls build lazily (engine compilation,
    float32 weight casts, first-touch memory), outside the timed phase."""
    if workload == "serve-open":
        service = GenerationService(pipeline=model.pipeline, server_seed=seed)
        try:
            futures = [
                service.submit(GenerateRequest(
                    request_id=WARM_UP_IDS + i, class_name=name, count=4))
                for i, (name, _) in enumerate(SERVE_MIX * 4)
            ]
            for future in futures:
                render_pcap(future.result().flows)
        finally:
            service.shutdown(drain=True)
        return
    model.pipeline.generate_raw(
        EXPORT_CLASSES[0], 8, rng=np.random.default_rng([seed, 0x3A]),
        state_repair=True, dtype=np.float32,
    )


# -- gates ----------------------------------------------------------------
def pcap_records(blob: bytes) -> list[bytes]:
    """The packet bytes of every record of a LINKTYPE_RAW pcap.

    Parsed here rather than by the program, so the gate does not trust
    the code it checks.
    """
    if len(blob) < 24:
        raise ValueError("truncated pcap global header")
    for order in "<>":
        if struct.unpack_from(order + "I", blob)[0] == PCAP_MAGIC:
            break
    else:
        raise ValueError("bad pcap magic")
    linktype = struct.unpack_from(order + "I", blob, 20)[0]
    if linktype != LINKTYPE_RAW:
        raise ValueError(f"linktype {linktype}, expected {LINKTYPE_RAW}")
    records = []
    offset = 24
    while offset < len(blob):
        if offset + 16 > len(blob):
            raise ValueError("truncated pcap record header")
        caplen, origlen = struct.unpack_from(order + "II", blob, offset + 8)
        offset += 16
        if caplen != origlen or offset + caplen > len(blob):
            raise ValueError("truncated pcap record")
        records.append(blob[offset:offset + caplen])
        offset += caplen
    return records


def ipv4_checksum_ok(packet: bytes) -> bool:
    """Does the IPv4 header's one's-complement sum verify?"""
    ihl = (packet[0] & 0x0F) * 4
    if ihl < 20 or len(packet) < ihl:
        return False
    total = sum(struct.unpack(f">{ihl // 2}H", packet[:ihl]))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total == 0xFFFF


def check_capture(blob: bytes, expected: int, dominant: int, what: str):
    """Gate one pcap: record count, PcapReader re-read, IPv4 header
    checksums.  Returns (problems, packets, packets of the dominant
    transport)."""
    try:
        records = pcap_records(blob)
    except ValueError as exc:
        return [f"{what}: {exc}"], 0, 0
    problems = []
    if len(records) != expected:
        problems.append(f"{what}: {len(records)} records, "
                        f"{expected} written")
    with PcapReader(io.BytesIO(blob)) as reader:
        reread = sum(1 for _ in reader)
    if reread != expected:
        problems.append(f"{what}: PcapReader read {reread} packets, "
                        f"{expected} written")
    bad = sum(1 for r in records
              if len(r) < 20 or r[0] >> 4 != IPV4 or not ipv4_checksum_ok(r))
    if bad:
        problems.append(f"{what}: {bad} packets fail the IPv4 header "
                        "checksum")
    compliant = sum(1 for r in records if len(r) > 9 and r[9] == dominant)
    return problems, len(records), compliant


def render_pcap(flows) -> tuple[bytes, int]:
    """Flows to pcap bytes, as the HTTP handler renders a response."""
    buf = io.BytesIO()
    writer = PcapWriter(buf)
    datas, stamps = net_packet.render_flows(flows, net_packet.PacketRenderer())
    writer.write_many(datas, stamps)
    return buf.getvalue(), len(datas)


# -- export-fast ----------------------------------------------------------
@dataclass
class Export:
    path: Path
    class_name: str
    flows: int
    packets: int
    seconds: float


def export(model: Model, seed: int, seconds: float, out_dir: Path,
           units: int | None = None) -> Run:
    """``repro generate --stream-pcap --fp32 --state-repair`` calls, one
    class each, until the next call would end past ``seconds`` (or
    exactly ``units`` calls).  The compiled engine comes from the
    environment the caller set up.
    """
    pipeline = model.pipeline
    first = seed % len(EXPORT_CLASSES)
    exports: list[Export] = []
    start = time.perf_counter()
    elapsed = 0.0
    while (len(exports) < units if units is not None
           else not exports or elapsed + elapsed / len(exports) <= seconds):
        index = len(exports)
        class_name = EXPORT_CLASSES[(first + index) % len(EXPORT_CLASSES)]
        path = out_dir / f"export-{index}.pcap"
        began = time.perf_counter()
        renderer = net_packet.PacketRenderer()
        flows = packets = 0
        with PcapWriter(open(path, "wb")) as writer:
            for result in pipeline.generate_stream(
                class_name, EXPORT_FLOWS,
                rng=np.random.default_rng([seed, index]),
                state_repair=True, dtype=np.float32,
            ):
                datas, stamps = net_packet.render_flows(
                    result.flows, renderer
                )
                packets += writer.write_many(datas, stamps)
                flows += len(result.flows)
        done = time.perf_counter()
        exports.append(Export(path, class_name, flows, packets, done - began))
        elapsed = done - start
    tally = Tally(attempted=len(exports))
    problems = []
    total = compliant = 0
    for item in exports:
        found, n, ok = check_capture(
            item.path.read_bytes(), item.packets,
            model.dominant[item.class_name], item.path.name,
        )
        problems += found
        total += n
        compliant += ok
        if item.flows != EXPORT_FLOWS:
            problems.append(f"{item.path.name}: {item.flows} flows, "
                            f"{EXPORT_FLOWS} asked for")
        item.path.unlink()
    times_ms = [e.seconds * 1e3 for e in exports]
    metrics = {
        # the median export's, so a slow spell in part of the run moves
        # it less than the mean
        "flows_per_s": statistics.median(e.flows / e.seconds
                                         for e in exports),
        "latency_p50_ms": percentile(times_ms, 50),
        "latency_p90_ms": percentile(times_ms, 90),
        "within_slo_share": sum(t <= EXPORT_SLO_MS for t in times_ms)
        / len(times_ms),
        "proto_compliance": compliant / total if total else 0.0,
    }
    notes = [f"latency: {len(times_ms)} exports of {EXPORT_FLOWS} flows; "
             "p90 rests on fewer than 10 samples beyond it"]
    return Run(elapsed, metrics, tally, problems, notes, units=len(exports))


# -- serve-open -----------------------------------------------------------
@dataclass
class Served:
    request: GenerateRequest
    due: float
    sent: float = 0.0
    done: float = 0.0
    outcome: str = "pending"
    body: bytes = b""
    packets: int = 0
    finished: threading.Event = field(default_factory=threading.Event)


def _requests(seed: int, first_id: int, n: int) -> list[GenerateRequest]:
    """``n`` requests with ids from ``first_id``: classes in exactly the
    shares of ``SERVE_MIX`` and flow counts 1-4 in equal numbers, in a
    seeded order, so seeds differ in order but not in the work asked."""
    rng = np.random.default_rng([seed, 0x5E, first_id])
    bounds = np.cumsum([share for _, share in SERVE_MIX]) * n
    slots = np.searchsorted(bounds, np.arange(n) + 0.5)
    names = [SERVE_MIX[int(i)][0] for i in rng.permutation(slots)]
    counts = rng.permutation(np.arange(n) % 4 + 1)
    return [GenerateRequest(request_id=first_id + i, class_name=name,
                            count=int(count))
            for i, (name, count) in enumerate(zip(names, counts))]


def serve(model: Model, seed: int, seconds: float) -> Run:
    """Phase A: seeded Poisson arrivals at ``SERVE_RATE``; latency from
    each request's due time.  Phase B: closed-loop waves of
    ``SERVE_WAVE`` requests, each sent when the last one is done;
    throughput.  One collector thread renders every result to pcap
    bytes as it completes."""
    service = GenerationService(pipeline=model.pipeline, server_seed=seed)
    completed: queue.Queue = queue.Queue()
    n_a = max(1, round(SERVE_RATE * seconds * PHASE_A_SHARE))
    waves = max(1, round(PHASE_B_RATE * seconds * (1 - PHASE_A_SHARE)
                         / SERVE_WAVE))
    requests_a = _requests(seed, 0, n_a)
    requests_b = _requests(seed, n_a, waves * SERVE_WAVE)
    # Poisson arrivals at SERVE_RATE, conditioned on n_a of them in phase
    # A's share of the run: sorted uniform times.
    offsets = np.sort(np.random.default_rng([seed, 0xA7]).uniform(
        0.0, n_a / SERVE_RATE, n_a))

    def submit(item: Served) -> None:
        item.sent = time.perf_counter()
        try:
            future = service.submit(item.request)
        except ServiceOverloaded:
            item.outcome = "rejected"
            item.done = item.sent
            item.finished.set()
            return
        future.add_done_callback(lambda f: completed.put((item, f)))

    def collect() -> None:
        while True:
            entry = completed.get()
            if entry is None:
                return
            item, future = entry
            try:
                item.body, item.packets = render_pcap(future.result().flows)
                item.outcome = "ok"
            except RequestExpired:
                item.outcome = "expired"
            except Exception as exc:  # noqa: BLE001 - a failed request
                item.outcome = f"error: {exc!r}"
            item.done = time.perf_counter()
            item.finished.set()

    collector = threading.Thread(target=collect, name="perfbench-collector")
    collector.start()
    try:
        start = time.perf_counter()
        phase_a = []
        for offset, request in zip(offsets, requests_a):
            due = start + float(offset)
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            item = Served(request, due)
            phase_a.append(item)
            submit(item)
        _wait_all(phase_a)
        phase_b = []
        wave_rates = []
        for first in range(0, len(requests_b), SERVE_WAVE):
            began = time.perf_counter()
            wave = [Served(r, began)
                    for r in requests_b[first:first + SERVE_WAVE]]
            for item in wave:
                submit(item)
            _wait_all(wave)
            wave_rates.append(sum(i.request.count for i in wave
                                  if i.outcome == "ok")
                              / (time.perf_counter() - began))
            phase_b += wave
        wall = time.perf_counter() - start
    finally:
        completed.put(None)
        collector.join()
        service.shutdown(drain=True)
    return _serve_run(model, seed, phase_a, phase_b, wave_rates, wall)


def _wait_all(items) -> None:
    for item in items:
        if not item.finished.wait(WAIT_LIMIT):
            raise TimeoutError(
                f"request {item.request.request_id} unresolved after "
                f"{WAIT_LIMIT:g} s"
            )


def _serve_run(model, seed, phase_a, phase_b, wave_rates, wall) -> Run:
    served = phase_a + phase_b
    tally = Tally(attempted=len(served))
    for item in served:
        tally.rejected += item.outcome == "rejected"
        tally.expired += item.outcome == "expired"
        tally.errors += item.outcome.startswith("error")
    latencies = [(i.done - i.due) * 1e3 for i in phase_a if i.outcome == "ok"]
    lags = [(i.sent - i.due) * 1e3 for i in phase_a]
    within = sum(1 for i in phase_a if i.outcome == "ok"
                 and (i.done - i.due) * 1e3 <= SERVE_SLO_MS)
    flows_per_s = statistics.median(wave_rates)
    problems = []
    total = compliant = 0
    for item in served:
        if item.outcome != "ok":
            continue
        found, n, ok = check_capture(
            item.body, item.packets, model.dominant[item.request.class_name],
            f"request {item.request.request_id}",
        )
        problems += found
        total += n
        compliant += ok
    problems += _check_determinism(model, seed, served)
    metrics = {
        "flows_per_s": flows_per_s,
        "latency_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "latency_p90_ms": percentile(latencies, 90) if latencies else 0.0,
        "within_slo_share": within / len(phase_a),
        "proto_compliance": compliant / total if total else 0.0,
    }
    notes = [
        f"phase A: {len(phase_a)} requests at {SERVE_RATE:g}/s, "
        f"{len(latencies)} latency samples, "
        f"{samples_beyond(len(latencies), 90)} beyond p90; generator lag p50 "
        f"{percentile(lags, 50):.3f} ms, p95 {percentile(lags, 95):.3f} ms, "
        f"max {max(lags):.3f} ms",
        f"phase B: {len(phase_b)} requests in waves of {SERVE_WAVE}; "
        f"flows/s per wave {', '.join(f'{r:.1f}' for r in wave_rates)}",
    ]
    for phase, items in (("A", phase_a), ("B", phase_b)):
        counts = Counter(i.outcome for i in items)
        notes.append(
            f"phase {phase}: attempted {len(items)} succeeded "
            f"{counts['ok']} rejected {counts['rejected']} expired "
            f"{counts['expired']} errors "
            f"{sum(n for o, n in counts.items() if o.startswith('error'))}"
        )
        notes += sorted({i.outcome for i in items
                         if i.outcome.startswith("error")})
    return Run(wall, metrics, tally, problems, notes,
               phase_a_ids={i.request.request_id for i in phase_a},
               generator_lags_ms=lags)


def _check_determinism(model: Model, seed: int, served) -> list[str]:
    """A served request's bytes equal direct generation from its stream."""
    ok = [i for i in served if i.outcome == "ok"]
    if not ok:
        return ["no request was served"]
    pick = np.random.default_rng([seed, 0xD7]).choice(
        len(ok), size=min(DETERMINISM_SAMPLE, len(ok)), replace=False
    )
    problems = []
    for index in sorted(pick):
        item = ok[index]
        req = item.request
        direct = model.pipeline.generate_raw(
            req.class_name, req.count,
            rng=request_rng(seed, req.request_id),
        )
        body, _ = render_pcap(direct.flows)
        if body != item.body:
            problems.append(
                f"request {req.request_id}: served bytes "
                f"{hashlib.sha256(item.body).hexdigest()[:12]} differ from "
                f"direct generation {hashlib.sha256(body).hexdigest()[:12]}"
            )
    return problems
