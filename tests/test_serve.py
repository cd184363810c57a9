"""Serving tier: batched dispatch, per-request determinism, backpressure.

The serving contract under test: a request's flows depend only on
``(server_seed, request_id)`` — never on admission order, batch
composition or transport — and concurrent same-class requests are
served by ONE coalesced denoiser forward per DDIM step.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
from repro.net.packet import PacketRenderer, render_flows
from repro.net.pcap import PcapWriter
from repro.serve import (
    SERVE_SALT,
    GenerateRequest,
    GenerationService,
    ModelNotFound,
    ModelStore,
    RequestExpired,
    RequestTooLarge,
    ServiceClosed,
    ServiceOverloaded,
    request_rng,
)
from repro.serve.http import TrafficServer
from repro.traffic.dataset import generate_app_flows

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _train_flows():
    flows = []
    for app in ("netflix", "teams"):
        flows.extend(generate_app_flows(app, 12, seed=3))
    return flows


@pytest.fixture(scope="module")
def fitted():
    config = PipelineConfig(
        max_packets=10, latent_dim=32, hidden=64, blocks=2,
        timesteps=80, train_steps=60, controlnet_steps=30,
        ddim_steps=10, generation_batch=16, seed=9,
    )
    return TextToTrafficPipeline(config).fit(_train_flows())


def _pcap_bytes(flows) -> bytes:
    buf = io.BytesIO()
    writer = PcapWriter(buf)
    datas, stamps = render_flows(flows, PacketRenderer())
    writer.write_many(datas, stamps)
    return buf.getvalue()


def _solo_bytes(pipeline, server_seed: int, request_id: int,
                count: int) -> bytes:
    """The reference output: a lone generate_raw with the derived RNG."""
    result = pipeline.generate_raw(
        "netflix", count, rng=request_rng(server_seed, request_id)
    )
    return _pcap_bytes(result.flows)


def _service(fitted, **kwargs) -> GenerationService:
    kwargs.setdefault("server_seed", 7)
    kwargs.setdefault("max_wait", 0.05)
    return GenerationService(pipeline=fitted, **kwargs)


class TestRequestRng:
    def test_streams_are_request_keyed(self):
        a = request_rng(0, 1).standard_normal(8)
        b = request_rng(0, 1).standard_normal(8)
        c = request_rng(0, 2).standard_normal(8)
        d = request_rng(1, 1).standard_normal(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_salt_distinct_from_shard_salt(self):
        assert SERVE_SALT != 0x5EED5EED

    def test_benchmark_harness_salt_matches(self):
        """benchmarks/serve_smoke.py carries a local copy of the
        derivation (the pre-service baseline predates repro.serve); the
        streams must stay identical or its cross-mode digest check
        silently weakens."""
        sys.path.insert(0, str(_BENCHMARKS))
        try:
            import serve_smoke
        finally:
            sys.path.pop(0)
        ours = request_rng(11, 42).standard_normal(16)
        theirs = serve_smoke._request_rng(11, 42).standard_normal(16)
        assert np.array_equal(ours, theirs)


class TestServiceRoundtrip:
    def test_submit_resolves_to_generation_result(self, fitted):
        service = _service(fitted)
        try:
            result = service.generate(
                GenerateRequest(request_id=0, class_name="netflix", count=3)
            )
            assert len(result.flows) == 3
            assert all(f.label == "netflix" for f in result.flows)
        finally:
            service.shutdown()

    def test_served_bytes_equal_solo_generate_raw(self, fitted):
        service = _service(fitted)
        try:
            result = service.generate(
                GenerateRequest(request_id=5, class_name="netflix", count=2)
            )
        finally:
            service.shutdown()
        assert _pcap_bytes(result.flows) == _solo_bytes(fitted, 7, 5, 2)

    def test_bad_count_rejected_at_construction(self):
        with pytest.raises(ValueError, match="count"):
            GenerateRequest(request_id=0, class_name="netflix", count=0)

    def test_unknown_class_fails_only_its_requests(self, fitted):
        service = _service(fitted, autostart=False)
        bad = service.submit(
            GenerateRequest(request_id=0, class_name="nope", count=1))
        good = service.submit(
            GenerateRequest(request_id=1, class_name="netflix", count=1))
        service.start()
        try:
            with pytest.raises(KeyError):
                bad.result(timeout=30)
            assert len(good.result(timeout=30).flows) == 1
        finally:
            service.shutdown()


class TestRequestBounds:
    def test_count_above_generation_batch_rejected(self, fitted):
        """A count above one batch would be split by ``generate_raw``
        (16 + 1 here) but sampled whole by the service: refused."""
        service = _service(fitted, autostart=False)
        limit = fitted.config.generation_batch
        try:
            with pytest.raises(RequestTooLarge):
                service.submit(GenerateRequest(
                    request_id=0, class_name="netflix", count=limit + 1))
            service.submit(GenerateRequest(
                request_id=1, class_name="netflix", count=limit))
        finally:
            service.shutdown(drain=False)

    @staticmethod
    def _coalesced_and_solo(fitted, **options):
        """Parts ``[2B+8, 5, B+1, 1, B]`` coalesced, each with its solo
        ``generate_raw`` under the same rng."""
        b = fitted.config.generation_batch
        counts = [2 * b + 8, 5, b + 1, 1, b]
        results = fitted.generate_coalesced(
            "netflix",
            [(count, request_rng(7, i)) for i, count in enumerate(counts)],
            **options,
        )
        assert [len(r.flows) for r in results] == counts
        return [
            (result, fitted.generate_raw(
                "netflix", count, rng=request_rng(7, i), **options))
            for i, (count, result) in enumerate(zip(counts, results))
        ]

    @pytest.mark.parametrize("state_repair", [False, True])
    @pytest.mark.parametrize("guidance_weight", [2.0, 0.0])
    def test_coalesced_parts_of_any_size_equal_solo_generate_raw(
        self, fitted, guidance_weight, state_repair
    ):
        """Parts above ``generation_batch`` split exactly as a solo
        ``generate_raw`` splits them, so each part keeps its solo bytes."""
        for result, solo in self._coalesced_and_solo(
            fitted, guidance_weight=guidance_weight,
            state_repair=state_repair,
        ):
            assert _pcap_bytes(result.flows) == _pcap_bytes(solo.flows)
            assert np.array_equal(result.matrices, solo.matrices)

    @pytest.mark.parametrize("state_repair", [False, True])
    @pytest.mark.parametrize("guidance_weight", [2.0, 0.0])
    def test_coalesced_float32_parts_match_solo_to_rounding(
        self, fitted, guidance_weight, state_repair
    ):
        """At float32 a part's rows sit at other positions of a wider
        sampler batch than alone, and OpenBLAS sgemm rounds by row
        position when the output width is 16k+1..3 or 16k+5..7 (the
        latent width here is 23).  Parts then agree with their solo run
        to float32 rounding, not bitwise."""
        for result, solo in self._coalesced_and_solo(
            fitted, dtype=np.float32, guidance_weight=guidance_weight,
            state_repair=state_repair,
        ):
            np.testing.assert_allclose(result.continuous, solo.continuous,
                                       rtol=1e-4, atol=1e-4)

    def test_count_above_max_batch_flows_rejected(self, fitted):
        service = _service(fitted, autostart=False, max_batch_flows=4)
        try:
            with pytest.raises(RequestTooLarge):
                service.submit(GenerateRequest(
                    request_id=0, class_name="netflix", count=5))
        finally:
            service.shutdown(drain=False)

    @pytest.mark.parametrize("steps", [0, -3, 81])
    def test_steps_outside_schedule_rejected(self, fitted, steps):
        service = _service(fitted, autostart=False)
        try:
            with pytest.raises(ValueError, match="steps"):
                service.submit(GenerateRequest(
                    request_id=0, class_name="netflix", count=1,
                    steps=steps))
            assert service.pending() == 0
        finally:
            service.shutdown(drain=False)

    def test_full_schedule_steps_served(self, fitted):
        service = _service(fitted)
        try:
            result = service.generate(GenerateRequest(
                request_id=3, class_name="netflix", count=1,
                steps=fitted.config.timesteps))
        finally:
            service.shutdown()
        assert len(result.flows) == 1

    def test_negative_request_id_and_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="request_id"):
            GenerateRequest(request_id=-1, class_name="netflix", count=1)
        with pytest.raises(ValueError, match="guidance_weight"):
            GenerateRequest(request_id=0, class_name="netflix", count=1,
                            guidance_weight=float("nan"))


class TestCoalescing:
    def test_concurrent_requests_share_one_forward_per_step(self, fitted):
        """4 queued requests -> 1 batch -> ddim_steps denoiser forwards
        (the fused-CFG eager path runs one 2m-row forward per step)."""
        service = _service(fitted, autostart=False, max_batch_flows=16)
        futures = [
            service.submit(GenerateRequest(
                request_id=rid, class_name="netflix", count=2))
            for rid in range(4)
        ]
        perf.reset()
        service.start()
        try:
            results = [f.result(timeout=60) for f in futures]
        finally:
            service.shutdown()
        assert [len(r.flows) for r in results] == [2, 2, 2, 2]
        assert perf.counter("serve.batches") == 1
        assert perf.counter("serve.batched_requests") == 4
        assert perf.counter("serve.batched_flows") == 8
        assert perf.counter("pipeline.sample_batches") == 1
        assert perf.counter("denoiser.forward") == fitted.config.ddim_steps
        assert perf.counter("serve.completed") == 4

    def test_entry_points_report_equal_sampling_counters(self, fitted):
        """One sampler behind every entry point: the same flows cost the
        same sampler batches and denoiser forwards however they are
        asked for."""
        b = fitted.config.generation_batch
        n = 2 * b + 3
        names = ("pipeline.sample_batches", "pipeline.sampled_flows",
                 "denoiser.forward")
        calls = {
            "raw": lambda rng: fitted.generate_raw("netflix", n, rng=rng),
            "stream": lambda rng: list(fitted.generate_stream(
                "netflix", n, chunk=b, rng=rng)),
            "coalesced": lambda rng: fitted.generate_coalesced(
                "netflix", [(n, rng)]),
        }
        counters = {}
        for name, call in calls.items():
            perf.reset()
            call(np.random.default_rng(3))
            counters[name] = [perf.counter(c) for c in names]
        assert counters["raw"] == counters["stream"] == counters["coalesced"]
        assert counters["raw"] == [3, n, 3 * fitted.config.ddim_steps]

    def test_batch_respects_max_batch_flows(self, fitted):
        service = _service(fitted, autostart=False, max_batch_flows=4)
        futures = [
            service.submit(GenerateRequest(
                request_id=rid, class_name="netflix", count=2))
            for rid in range(4)
        ]
        perf.reset()
        service.start()
        try:
            for f in futures:
                f.result(timeout=60)
        finally:
            service.shutdown()
        assert perf.counter("serve.batches") == 2

    def test_mixed_classes_split_into_groups(self, fitted):
        service = _service(fitted, autostart=False)
        futures = [
            service.submit(GenerateRequest(
                request_id=rid, class_name=cls, count=1))
            for rid, cls in enumerate(
                ["netflix", "teams", "netflix", "teams"])
        ]
        perf.reset()
        service.start()
        try:
            results = [f.result(timeout=60) for f in futures]
        finally:
            service.shutdown()
        assert perf.counter("serve.batches") == 2
        assert [r.flows[0].label for r in results] == [
            "netflix", "teams", "netflix", "teams"]


class TestDeterminism:
    def test_submission_order_and_batch_shape_invariance(self, fitted):
        """The pinned property: per-request bytes are identical across
        submission orders AND batch configurations."""
        rids = [3, 1, 4, 1 + 4, 9, 2, 6]
        reference = {
            rid: _solo_bytes(fitted, 7, rid, 2) for rid in set(rids)
        }
        for order, max_flows in [
            (rids, 16), (rids[::-1], 16), (rids, 4),
            ([rids[i] for i in (2, 0, 5, 6, 1, 3, 4)], 6),
        ]:
            service = _service(
                fitted, autostart=False, max_batch_flows=max_flows)
            futures = {
                rid: service.submit(GenerateRequest(
                    request_id=rid, class_name="netflix", count=2))
                for rid in order
            }
            service.start()
            try:
                got = {
                    rid: _pcap_bytes(fut.result(timeout=60).flows)
                    for rid, fut in futures.items()
                }
            finally:
                service.shutdown()
            assert got == {rid: reference[rid] for rid in got}

    def test_threaded_submission_is_deterministic(self, fitted):
        reference = {rid: _solo_bytes(fitted, 7, rid, 1) for rid in range(8)}
        service = _service(fitted, max_batch_flows=8)
        got: dict[int, bytes] = {}
        lock = threading.Lock()

        def worker(rid: int) -> None:
            result = service.generate(GenerateRequest(
                request_id=rid, class_name="netflix", count=1))
            with lock:
                got[rid] = _pcap_bytes(result.flows)

        threads = [threading.Thread(target=worker, args=(rid,))
                   for rid in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.shutdown()
        assert got == reference


class TestBackpressure:
    def test_queue_overflow_raises_service_overloaded(self, fitted):
        service = _service(fitted, autostart=False, max_queue=2)
        service.submit(GenerateRequest(
            request_id=0, class_name="netflix", count=1))
        service.submit(GenerateRequest(
            request_id=1, class_name="netflix", count=1))
        with pytest.raises(ServiceOverloaded):
            service.submit(GenerateRequest(
                request_id=2, class_name="netflix", count=1))
        assert perf.counter("serve.rejected") >= 1
        service.shutdown(drain=False)

    def test_queued_request_expires_after_deadline(self, fitted):
        service = _service(fitted, autostart=False)
        fut = service.submit(
            GenerateRequest(request_id=0, class_name="netflix", count=1),
            timeout=0.01,
        )
        time.sleep(0.05)
        service.start()
        try:
            with pytest.raises(RequestExpired):
                fut.result(timeout=30)
        finally:
            service.shutdown()


class TestDrain:
    def test_drain_serves_queued_then_refuses(self, fitted):
        service = _service(fitted, autostart=False)
        futures = [
            service.submit(GenerateRequest(
                request_id=rid, class_name="netflix", count=1))
            for rid in range(3)
        ]
        service.begin_drain()
        with pytest.raises(ServiceClosed):
            service.submit(GenerateRequest(
                request_id=99, class_name="netflix", count=1))
        service.start()
        service.shutdown(drain=True)
        assert all(len(f.result(timeout=0).flows) == 1 for f in futures)

    def test_shutdown_without_drain_fails_queued(self, fitted):
        service = _service(fitted, autostart=False)
        fut = service.submit(GenerateRequest(
            request_id=0, class_name="netflix", count=1))
        service.shutdown(drain=False)
        with pytest.raises(ServiceClosed):
            fut.result(timeout=0)


@pytest.fixture()
def server(fitted):
    service = _service(fitted)
    srv = TrafficServer(("127.0.0.1", 0), service)
    srv.start_background()
    host, port = srv.server_address[:2]
    yield service, f"http://{host}:{port}"
    srv.stop()
    service.shutdown()


def _post(url: str, payload: dict, timeout: float = 60):
    req = urllib.request.Request(
        f"{url}/generate", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.urlopen(req, timeout=timeout)


class TestHTTP:
    def test_generate_roundtrip_bytes_and_headers(self, fitted, server):
        _, url = server
        with _post(url, {"class": "netflix", "count": 2,
                         "request_id": 5}) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == \
                "application/vnd.tcpdump.pcap"
            assert resp.headers["X-Repro-Request-Id"] == "5"
            assert resp.headers["X-Repro-Flows"] == "2"
            body = resp.read()
        assert body == _solo_bytes(fitted, 7, 5, 2)

    def test_same_request_id_replays_identical_bytes(self, server):
        _, url = server
        digests = set()
        for _ in range(2):
            with _post(url, {"class": "netflix", "count": 1,
                             "request_id": 12}) as resp:
                digests.add(hashlib.sha256(resp.read()).hexdigest())
        assert len(digests) == 1

    def test_bad_json_is_400(self, server):
        _, url = server
        req = urllib.request.Request(
            f"{url}/generate", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    def test_unknown_class_is_404(self, server):
        _, url = server
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(url, {"class": "nope", "count": 1, "request_id": 0})
        assert err.value.code == 404

    def test_unknown_route_is_404(self, server):
        _, url = server
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{url}/nothing", timeout=30)
        assert err.value.code == 404

    def test_queue_overflow_is_429(self, fitted):
        service = _service(fitted, autostart=False, max_queue=1)
        srv = TrafficServer(("127.0.0.1", 0), service)
        srv.start_background()
        host, port = srv.server_address[:2]
        url = f"http://{host}:{port}"
        first_status: list[int] = []

        def first() -> None:
            with _post(url, {"class": "netflix", "count": 1,
                             "request_id": 0}) as resp:
                resp.read()
                first_status.append(resp.status)

        t = threading.Thread(target=first)
        t.start()
        deadline = time.monotonic() + 5
        while service.pending() < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert service.pending() == 1
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(url, {"class": "netflix", "count": 1, "request_id": 1})
        assert err.value.code == 429
        service.start()
        t.join(timeout=60)
        srv.stop()
        service.shutdown()
        assert first_status == [200]

    def test_stalled_dispatch_is_504(self, fitted):
        service = _service(fitted, autostart=False)
        srv = TrafficServer(("127.0.0.1", 0), service)
        srv.start_background()
        host, port = srv.server_address[:2]
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"http://{host}:{port}",
                  {"class": "netflix", "count": 1, "request_id": 0,
                   "timeout": 0.1})
        assert err.value.code == 504
        srv.stop()
        service.shutdown(drain=False)

    def test_count_above_batch_is_413(self, fitted, server):
        _, url = server
        count = fitted.config.generation_batch + 1
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(url, {"class": "netflix", "count": count,
                        "request_id": 0})
        assert err.value.code == 413

    def test_steps_out_of_range_is_400(self, fitted, server):
        _, url = server
        for steps in (0, fitted.config.timesteps + 1):
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(url, {"class": "netflix", "count": 1,
                            "request_id": 0, "steps": steps})
            assert err.value.code == 400

    def test_oversized_body_is_413(self, server):
        from repro.serve.http import MAX_BODY_BYTES

        _, url = server
        body = json.dumps({"class": "netflix", "count": 1,
                           "pad": "x" * MAX_BODY_BYTES}).encode()
        req = urllib.request.Request(
            f"{url}/generate", data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 413

    def test_draining_service_is_503(self, server):
        service, url = server
        service.begin_drain()
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(url, {"class": "netflix", "count": 1, "request_id": 0})
        assert err.value.code == 503


#: any JSON value, for fields a client may get wrong
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

#: /generate bodies: mostly plausible fields, each sometimes malformed
_bodies = st.fixed_dictionaries({}, optional={
    "class": st.sampled_from(["netflix", "teams", "nope"]) | _json_values,
    "count": st.integers(-2, 40) | _json_values,
    "request_id": st.integers(-5, 2**70) | _json_values,
    "steps": st.none() | st.integers(-1, 90) | _json_values,
    "guidance_weight": st.none() | st.floats(-5, 5) | _json_values,
    "timeout": st.none() | st.floats(-1, 30) | _json_values,
    "model": st.none() | _json_values,
}) | _json_values


class TestHTTPFuzz:
    """Whatever a client posts, the server answers with a mapped status
    and keeps serving well-formed requests."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(body=_bodies)
    def test_generate_bodies_never_break_the_service(self, server, body):
        _, url = server
        req = urllib.request.Request(
            f"{url}/generate", data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                resp.read()
                status = resp.status
        except urllib.error.HTTPError as err:
            status = err.code
        assert status in (200, 400, 404, 413, 504)
        with _post(url, {"class": "netflix", "count": 1,
                         "request_id": 1}) as resp:
            assert resp.status == 200
            resp.read()


class TestModelStore:
    def test_add_get_roundtrip(self, fitted, tmp_path):
        store = ModelStore(tmp_path)
        digest = store.add(fitted)
        assert digest in store
        assert store.get(digest) is fitted
        assert store.digests() == [digest]
        archives = list(tmp_path.glob("pipeline-shard-*.npz"))
        assert len(archives) == 1

    def test_load_from_disk_after_eviction(self, fitted, tmp_path):
        store = ModelStore(tmp_path, capacity=1)
        digest = store.add(fitted)
        store._loaded.clear()  # simulate a fresh serving process
        loaded = store.get(digest)
        assert loaded is not fitted
        rng_seed = (3, 8)
        a = fitted.generate_raw(
            "netflix", 2, rng=request_rng(*rng_seed)).flows
        b = loaded.generate_raw(
            "netflix", 2, rng=request_rng(*rng_seed)).flows
        assert _pcap_bytes(a) == _pcap_bytes(b)

    def test_unknown_digest_raises(self, tmp_path):
        store = ModelStore(tmp_path)
        with pytest.raises(ModelNotFound):
            store.get("deadbeef")

    def test_service_resolves_models_through_store(self, fitted, tmp_path):
        store = ModelStore(tmp_path)
        digest = store.add(fitted)
        service = GenerationService(
            store=store, default_model=digest, server_seed=7, max_wait=0.05
        )
        try:
            result = service.generate(GenerateRequest(
                request_id=5, class_name="netflix", count=2))
        finally:
            service.shutdown()
        assert _pcap_bytes(result.flows) == _solo_bytes(fitted, 7, 5, 2)
