"""Million-flow streaming tier: chunked generation, batched pcap writes,
header-template rendering, the float32 denoiser tier, and the harness's
on-disk stage artifacts."""

from __future__ import annotations

import io
import json
import tracemalloc

import numpy as np
import pytest

from repro import perf
from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
from repro.experiments.artifacts import (
    ArtifactRef,
    load_stage_result,
    save_stage_result,
)
from repro.net.headers import ICMPHeader, TCPFlags, TCPHeader, UDPHeader
from repro.net.packet import PacketRenderer, build_packet, render_flows
from repro.net.pcap import PcapError, PcapWriter
from repro.nprint.decoder import decode_flow
from repro.traffic.dataset import generate_app_flows


@pytest.fixture(scope="module")
def fitted():
    flows = []
    for app in ("netflix", "teams"):
        flows.extend(generate_app_flows(app, 12, seed=3))
    config = PipelineConfig(
        max_packets=10, latent_dim=32, hidden=64, blocks=2,
        timesteps=80, train_steps=60, controlnet_steps=30,
        ddim_steps=10, generation_batch=16, seed=9,
    )
    return TextToTrafficPipeline(config).fit(flows)


def _write_flow_major(flows, fileobj, snaplen: int = 65535) -> bytes:
    writer = PcapWriter(fileobj, snaplen=snaplen)
    for flow in flows:
        for pkt in flow.packets:
            writer.write_packet(pkt)
    return fileobj.getvalue()


class TestStreamingParity:
    def test_stream_pcap_byte_identical_to_batch(self, fitted):
        """Same seed, chunk a multiple of generation_batch => same bytes."""
        flows = fitted.generate(
            "netflix", 48, rng=np.random.default_rng(7)
        )
        batch_bytes = _write_flow_major(flows, io.BytesIO())

        stream_file = io.BytesIO()
        writer = PcapWriter(stream_file)
        renderer = PacketRenderer()
        for result in fitted.generate_stream(
            "netflix", 48, chunk=16, rng=np.random.default_rng(7)
        ):
            datas, stamps = render_flows(result.flows, renderer)
            writer.write_many(datas, stamps)
        assert stream_file.getvalue() == batch_bytes

    def test_stream_chunk_sizes_and_labels(self, fitted):
        sizes = []
        for result in fitted.generate_stream(
            "teams", 21, chunk=8, rng=np.random.default_rng(0)
        ):
            sizes.append(len(result.flows))
            assert all(f.label == "teams" for f in result.flows)
        assert sizes == [8, 8, 5]

    def test_stream_default_chunk_is_4x_generation_batch(self, fitted):
        results = list(fitted.generate_stream(
            "netflix", 70, rng=np.random.default_rng(0)
        ))
        assert [len(r.flows) for r in results] == [64, 6]

    def test_stream_peak_memory_independent_of_n(self, fitted):
        """Peak allocation is set by the chunk size, not the flow count."""

        def peak(n):
            writer = PcapWriter(io.BytesIO())
            renderer = PacketRenderer()
            tracemalloc.start()
            tracemalloc.reset_peak()
            for result in fitted.generate_stream(
                "netflix", n, chunk=16, rng=np.random.default_rng(1)
            ):
                datas, stamps = render_flows(result.flows, renderer)
                writer.write_many(datas, stamps)
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak_bytes

        small, large = peak(32), peak(96)
        # 3x the flows must not cost 3x the memory; allow generous noise.
        assert large < 1.5 * small + 4 * 1024 * 1024
        # Absolute cap derived from the chunk: latents, matrices and
        # flows for one 16-flow chunk are well under a megabyte on this
        # tiny config; 64 MiB leaves room for transient forward-pass
        # activations without letting full-batch materialisation slip by.
        assert large < 64 * 1024 * 1024


class TestWriteMany:
    def _packets(self, tcp_packet, udp_packet, icmp_packet):
        pkts = []
        for i, base in enumerate((tcp_packet, udp_packet, icmp_packet)):
            for j in range(3):
                p = build_packet(
                    base.ip.src_ip, base.ip.dst_ip, base.transport,
                    payload=base.payload + b"z" * j,
                    ttl=base.ip.ttl,
                    timestamp=base.timestamp + i + j * 0.125,
                )
                pkts.append(p)
        # A timestamp whose microsecond part rounds up to 1_000_000:
        pkts[0].timestamp = 1.9999997
        return pkts

    def test_matches_write_raw_loop(self, tcp_packet, udp_packet,
                                    icmp_packet):
        pkts = self._packets(tcp_packet, udp_packet, icmp_packet)
        loop_file = io.BytesIO()
        loop_writer = PcapWriter(loop_file)
        for p in pkts:
            loop_writer.write_raw(p.to_bytes(), p.timestamp)

        many_file = io.BytesIO()
        many_writer = PcapWriter(many_file)
        datas = [p.to_bytes() for p in pkts]
        stamps = np.array([p.timestamp for p in pkts])
        assert many_writer.write_many(datas, stamps) == len(pkts)
        assert many_file.getvalue() == loop_file.getvalue()

    def test_snaplen_truncation_matches(self, tcp_packet, udp_packet,
                                        icmp_packet):
        pkts = self._packets(tcp_packet, udp_packet, icmp_packet)
        loop_file = io.BytesIO()
        loop_writer = PcapWriter(loop_file, snaplen=40)
        for p in pkts:
            loop_writer.write_raw(p.to_bytes(), p.timestamp)
        many_file = io.BytesIO()
        many_writer = PcapWriter(many_file, snaplen=40)
        many_writer.write_many(
            [p.to_bytes() for p in pkts],
            np.array([p.timestamp for p in pkts]),
        )
        assert many_file.getvalue() == loop_file.getvalue()

    @pytest.mark.parametrize("snaplen", [65535, 40])
    def test_rendered_buffer_matches_write_raw_loop(self, fitted, snaplen):
        """A columnar render goes out through its reserved record slots,
        or through the join path when records must be truncated."""
        flows = fitted.generate_raw(
            "netflix", 6, rng=np.random.default_rng(8), state_repair=True
        ).flows
        loop_file = io.BytesIO()
        loop_writer = PcapWriter(loop_file, snaplen=snaplen)
        for flow in flows:
            for p in flow.packets:
                loop_writer.write_raw(p.to_bytes(), p.timestamp)
        many_file = io.BytesIO()
        datas, stamps = render_flows(flows)
        PcapWriter(many_file, snaplen=snaplen).write_many(datas, stamps)
        assert many_file.getvalue() == loop_file.getvalue()

    def test_rejects_mismatched_lengths(self):
        writer = PcapWriter(io.BytesIO())
        with pytest.raises(PcapError):
            writer.write_many([b"ab"], np.zeros(2))

    def test_rejects_negative_timestamp(self):
        writer = PcapWriter(io.BytesIO())
        with pytest.raises(PcapError):
            writer.write_many([b"ab", b"cd"], np.array([1.0, -0.5]))

    def test_empty_is_noop(self):
        f = io.BytesIO()
        writer = PcapWriter(f)
        header_len = len(f.getvalue())
        assert writer.write_many([], np.zeros(0)) == 0
        assert len(f.getvalue()) == header_len


class TestPacketRenderer:
    def test_randomized_parity_with_to_bytes(self, rng):
        renderer = PacketRenderer()
        for i in range(150):
            kind = i % 3
            src = int(rng.integers(0, 1 << 32))
            dst = int(rng.integers(0, 1 << 32))
            payload = bytes(
                rng.integers(0, 256, size=int(rng.integers(0, 60)),
                             dtype=np.uint8)
            )
            if kind == 0:
                opts = (b"", b"\x01\x01\x02\x04\x05\xb4")[i % 2]
                transport = TCPHeader(
                    src_port=int(rng.integers(1, 65536)),
                    dst_port=int(rng.integers(1, 65536)),
                    seq=int(rng.integers(0, 1 << 32)),
                    ack=int(rng.integers(0, 1 << 32)),
                    flags=int(TCPFlags.ACK) | int(rng.integers(0, 4)),
                    window=int(rng.integers(0, 65536)),
                    options=opts,
                )
            elif kind == 1:
                transport = UDPHeader(
                    src_port=int(rng.integers(1, 65536)),
                    dst_port=int(rng.integers(1, 65536)),
                )
            else:
                transport = ICMPHeader(
                    icmp_type=(8, 0)[i % 2], code=0,
                    rest=int(rng.integers(0, 1 << 32)),
                )
            pkt = build_packet(
                src, dst, transport, payload=payload,
                ttl=int(rng.integers(1, 256)),
                identification=int(rng.integers(0, 65536)),
            )
            assert renderer.render(pkt) == pkt.to_bytes()

    def test_template_cache_reused_within_flow(self, sample_flow):
        renderer = PacketRenderer()
        for pkt in sample_flow.packets:
            assert renderer.render(pkt) == pkt.to_bytes()
        # One IP template and one TCP template despite five packets.
        assert len(renderer._ip_cache) == 1
        assert len(renderer._transport_cache) == 1

    def test_render_flows_flow_major(self, sample_flow):
        datas, stamps = render_flows([sample_flow, sample_flow])
        assert len(datas) == 2 * len(sample_flow.packets)
        expected = [p.to_bytes() for p in sample_flow.packets] * 2
        assert datas == expected
        assert stamps.dtype == np.float64


class TestGenerationResultMatrices:
    @pytest.mark.parametrize("hard_guidance", [True, False])
    def test_matrices_are_the_decoded_ternary_tensor(self, fitted,
                                                     hard_guidance):
        result = fitted.generate_raw(
            "netflix", 12, rng=np.random.default_rng(5),
            hard_guidance=hard_guidance,
        )
        matrices = result.matrices
        assert matrices.dtype == np.int8
        assert matrices.shape == (12, fitted.config.max_packets, 1088)
        assert set(np.unique(matrices).tolist()) <= {-1, 0, 1}
        for i in range(len(matrices)):
            flow = decode_flow(matrices[i], gaps=result.gaps[i],
                               label="netflix").flow
            datas, _ = render_flows(result.flows[i:i + 1])
            assert list(datas) == [p.to_bytes() for p in flow]

    def test_coalesced_parts_slice_the_group_tensor(self, fitted):
        parts = [(2, np.random.default_rng(1)), (3, np.random.default_rng(2))]
        results = fitted.generate_coalesced("teams", parts)
        for (count, _), result in zip(parts, results):
            assert result.matrices.shape[0] == count == len(result.flows)
            assert result.matrices.dtype == np.int8


class TestEmissionTimers:
    def test_one_emit_timer_per_stage_per_chunk(self, fitted):
        registry = perf.get_registry()
        before = {name: stat.calls for name, stat in registry.timers.items()}
        writer = PcapWriter(io.BytesIO())
        for result in fitted.generate_stream(
            "netflix", 20, chunk=16, state_repair=True,
            rng=np.random.default_rng(4),
        ):
            datas, stamps = render_flows(result.flows)
            writer.write_many(datas, stamps)
        for stage in ("guidance", "repair", "decode", "state_repair",
                      "render", "write"):
            name = f"emit.{stage}"
            assert registry.timers[name].calls - before.get(name, 0) == 2


class TestFloat32Tier:
    def test_latent_drift_bounded(self, fitted):
        z64 = fitted.sample_latents(
            "netflix", 8, rng=np.random.default_rng(11)
        )
        z32 = fitted.sample_latents(
            "netflix", 8, rng=np.random.default_rng(11), dtype=np.float32
        )
        assert z64.dtype == np.float64
        assert z32.dtype == np.float32
        assert float(np.max(np.abs(z64 - z32))) < 5e-3

    def test_fp32_flows_well_formed(self, fitted):
        flows = fitted.generate(
            "teams", 6, rng=np.random.default_rng(2), dtype=np.float32
        )
        assert len(flows) == 6
        assert all(f.label == "teams" and len(f) >= 1 for f in flows)

    def test_default_path_untouched_by_cast_cache(self, fitted):
        a = fitted.sample_latents(
            "netflix", 4, rng=np.random.default_rng(3)
        )
        fitted.sample_latents(
            "netflix", 4, rng=np.random.default_rng(3), dtype=np.float32
        )
        b = fitted.sample_latents(
            "netflix", 4, rng=np.random.default_rng(3)
        )
        assert np.array_equal(a, b)


class TestStageArtifacts:
    def test_roundtrip_with_mmap(self, tmp_path):
        big = np.arange(4096, dtype=np.float64).reshape(64, 64)
        small = np.ones(4, dtype=np.float32)
        shared = np.linspace(0.0, 1.0, 2048)
        result = {
            "big": big, "small": small, "pair": (shared, shared),
            "meta": {"name": "stage", "count": 3},
        }
        ref = save_stage_result(result, str(tmp_path / "stage"))
        assert isinstance(ref, ArtifactRef)
        loaded = load_stage_result(ref)
        assert np.array_equal(loaded["big"], big)
        assert isinstance(loaded["big"], np.memmap)
        # Small arrays stay inline in the pickle.
        assert not isinstance(loaded["small"], np.memmap)
        assert np.array_equal(loaded["small"], small)
        # Aliasing in the object graph survives the roundtrip.
        assert loaded["pair"][0] is loaded["pair"][1]
        assert loaded["meta"] == {"name": "stage", "count": 3}

    def test_mmap_none_loads_plain_arrays(self, tmp_path):
        big = np.zeros((64, 64))
        ref = save_stage_result({"big": big}, str(tmp_path / "s"))
        loaded = load_stage_result(ref, mmap_mode=None)
        assert not isinstance(loaded["big"], np.memmap)
        assert np.array_equal(loaded["big"], big)


class TestSchedulerCosts:
    def test_falls_back_to_declared_estimates(self, tmp_path):
        from repro.experiments.runner import STAGES, _stage_costs

        costs = _stage_costs(list(STAGES), str(tmp_path))
        assert costs == {s.name: s.est_seconds for s in STAGES}

    def test_measured_times_override_estimates(self, tmp_path):
        from repro.experiments.runner import STAGES, _stage_costs

        measured = {"table1": 42.0, "prewarm": 9.0}
        with open(tmp_path / "stage_times.json", "w") as f:
            json.dump(measured, f)
        costs = _stage_costs(list(STAGES), str(tmp_path))
        assert costs["table1"] == 42.0
        assert "prewarm" not in costs
        assert costs["extensions"] == 69.0

    def test_longest_first_ordering(self, tmp_path):
        from repro.experiments.runner import STAGES, _stage_costs

        costs = _stage_costs(list(STAGES), None)
        ordered = sorted(STAGES, key=lambda s: costs[s.name], reverse=True)
        assert [s.name for s in ordered[:3]] == [
            "extensions", "ablations", "fidelity",
        ]

    def test_run_all_writes_stage_times(self, tmp_path):
        from repro.experiments.runner import _write_stage_times

        _write_stage_times({"a": 1.5}, str(tmp_path))
        with open(tmp_path / "stage_times.json") as f:
            assert json.load(f) == {"a": 1.5}
