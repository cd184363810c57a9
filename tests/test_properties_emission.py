"""Property tests (hypothesis): columnar emission against object oracles.

Generated flows travel from the nprint tensor to pcap bytes as packet
columns (:class:`repro.net.flowbatch.FlowBatch`).  Each columnar kernel
here is pinned to the object-level code it replaces, which stays as the
oracle: the renderer to ``Packet.to_bytes``, state repair to the
per-flow ``repair_flow_state`` (including the rng state it leaves), and
the batch decoder to the scalar ``decode_packet``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.controlnet import apply_structure_guidance
from repro.core.postprocess import (
    quantize_matrix,
    repair_matrix,
    repair_row_structure,
)
from repro.core.staterepair import repair_flows_state
from repro.net.checksum import _ones_complement_sum, pseudo_header
from repro.net.flow import Flow
from repro.net.flowbatch import COLUMNS, INT_COLUMNS, FlowBatch
from repro.net.headers import (
    ICMPHeader,
    IPProto,
    IPv4Header,
    TCPHeader,
    UDPHeader,
)
from repro.net.packet import Packet, render_flows
from repro.nprint.decoder import decode_flow, decode_packet
from repro.nprint.fields import FIELDS, NPRINT_BITS, REGION_SLICES, VACANT

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _columns(flows: list[Flow]) -> FlowBatch:
    """Columns of zero-payload flows: the inverse of the FlowBatch view."""
    packets = [p for f in flows for p in f.packets]
    n = len(packets)
    cols = {name: np.zeros(n, dtype=np.int64) for name in INT_COLUMNS}
    cols["timestamp"] = np.zeros(n)
    cols["ip_options"] = np.zeros((n, 40), dtype=np.uint8)
    cols["tcp_options"] = np.zeros((n, 40), dtype=np.uint8)
    for i, p in enumerate(packets):
        t = p.transport
        row = {
            "timestamp": p.timestamp, "proto": p.ip.proto,
            "src_ip": p.ip.src_ip, "dst_ip": p.ip.dst_ip,
            "dscp": p.ip.dscp, "ecn": p.ip.ecn,
            "identification": p.ip.identification,
            "ip_flags": p.ip.flags, "frag_offset": p.ip.fragment_offset,
            "ttl": p.ip.ttl, "ip_opt_len": len(p.ip.options),
            "payload_len": len(p.payload),
        }
        if isinstance(t, (TCPHeader, UDPHeader)):
            row.update(sport=t.src_port, dport=t.dst_port)
        if isinstance(t, TCPHeader):
            row.update(seq=t.seq, ack=t.ack, tcp_flags=t.flags,
                       window=t.window, urgent=t.urgent_pointer,
                       tcp_opt_len=len(t.options))
            cols["tcp_options"][i, :len(t.options)] = list(t.options)
        if isinstance(t, ICMPHeader):
            row.update(icmp_type=t.icmp_type, icmp_code=t.code,
                       icmp_rest=t.rest)
        for name, value in row.items():
            cols[name][i] = value
        cols["ip_options"][i, :len(p.ip.options)] = list(p.ip.options)
    offsets = np.cumsum([0] + [len(f) for f in flows])
    label = flows[0].label if flows else ""
    return FlowBatch(cols, offsets, label)


u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
options = st.integers(0, 10).flatmap(
    lambda words: st.binary(min_size=4 * words, max_size=4 * words))


@st.composite
def ip_headers(draw, proto: int, src=u32, dst=u32) -> IPv4Header:
    return IPv4Header(
        src_ip=draw(src), dst_ip=draw(dst), proto=proto,
        ttl=draw(st.integers(0, 255)),
        identification=draw(u16), dscp=draw(st.integers(0, 63)),
        ecn=draw(st.integers(0, 3)), flags=draw(st.integers(0, 7)),
        fragment_offset=draw(st.integers(0, 0x1FFF)),
        options=draw(options),
    )


@st.composite
def packets(draw, ips=u32, port_values=u16, max_payload=1500) -> Packet:
    """A zero-payload TCP (with options), UDP or ICMP packet."""
    proto = draw(st.sampled_from([6, 17, 1]))
    ip = draw(ip_headers(proto, ips, ips))
    if proto == 6:
        transport = TCPHeader(
            src_port=draw(port_values), dst_port=draw(port_values),
            seq=draw(u32), ack=draw(u32),
            flags=draw(st.integers(0, 255)), window=draw(u16),
            urgent_pointer=draw(u16), options=draw(options),
        )
        header = 20 + len(transport.options)
    elif proto == 17:
        transport = UDPHeader(src_port=draw(port_values),
                              dst_port=draw(port_values))
        header = 8
    else:
        transport = ICMPHeader(icmp_type=draw(st.integers(0, 255)),
                               code=draw(st.integers(0, 255)), rest=draw(u32))
        header = 8
    limit = min(max_payload, 65535 - ip.header_length - header)
    payload = b"\x00" * draw(st.integers(0, limit))
    stamp = draw(st.floats(0.0, 5.0, allow_nan=False))
    return Packet(ip=ip, transport=transport, payload=payload,
                  timestamp=stamp)


def _udp_zero_fold(pkt: Packet) -> Packet:
    """Re-pick the source port so the UDP sum folds to 0xFFFF, i.e. the
    computed checksum is 0 and goes out as 0xFFFF."""
    length = 8 + len(pkt.payload)
    rest = _ones_complement_sum(
        pseudo_header(pkt.ip.src_ip, pkt.ip.dst_ip, 17, length)
        + pkt.transport.dst_port.to_bytes(2, "big")
        + length.to_bytes(2, "big"))
    pkt.transport.src_port = 0xFFFF - rest
    assert pkt.transport.pack(pkt.ip.src_ip, pkt.ip.dst_ip,
                              pkt.payload)[6:8] == b"\xff\xff"
    return pkt


class TestColumnarRender:
    @SETTINGS
    @given(pkts=st.lists(packets(), min_size=1, max_size=12),
           zero_fold=st.booleans())
    def test_matches_to_bytes(self, pkts, zero_fold):
        if zero_fold:
            pkts = [_udp_zero_fold(p) if p.ip.proto == 17 else p
                    for p in pkts]
        batch = _columns([Flow(packets=pkts[:3]), Flow(packets=pkts[3:])])
        datas, stamps = render_flows(batch)
        assert list(datas) == [p.to_bytes() for p in pkts]
        assert [datas[i] for i in range(len(pkts))] == list(datas)
        assert stamps.tolist() == [p.timestamp for p in pkts]

    @SETTINGS
    @given(pkts=st.lists(packets(), min_size=0, max_size=8))
    def test_columns_roundtrip_through_view(self, pkts):
        flows = [Flow(packets=pkts, label="x"), Flow(label="x")]
        assert list(_columns(flows)) == flows


# -- state repair ---------------------------------------------------------
#: a few addresses, 0 among them, so flows see one or two directions and
#: the degenerate-endpoint fallbacks
FEW_IPS = st.sampled_from([0, 0x0A000001, 0x0A000002, 0x17000001])
FEW_PORTS = st.sampled_from([0, 443, 5000, 51000])


@st.composite
def flow_lists(draw) -> list[Flow]:
    kinds = draw(st.lists(st.sampled_from(
        ["tcp", "udp", "icmp", "mixed", "empty"]), min_size=1, max_size=6))
    flows = []
    for kind in kinds:
        n = 0 if kind == "empty" else draw(st.integers(1, 8))
        pkts = [draw(packets(FEW_IPS, FEW_PORTS, max_payload=700))
                for _ in range(n)]
        if kind in ("tcp", "udp", "icmp"):
            proto = {"tcp": 6, "udp": 17, "icmp": 1}[kind]
            pkts = [p for p in pkts if p.ip.proto == proto] or pkts
        flows.append(Flow(packets=pkts, label="gen"))
    return flows


class TestColumnarStateRepair:
    @SETTINGS
    @given(flows=flow_lists(), seed=st.integers(0, 2**32 - 1),
           clash=st.booleans())
    def test_matches_per_flow_repair(self, flows, seed, clash):
        batch = _columns(flows)
        if clash:
            # Make every flow's server port collide with the client port
            # the rng is about to hand it.
            ports = np.random.default_rng(seed).choice(
                np.arange(49152, 65535), size=len(flows), replace=False)
            for flow, port in zip(flows, ports):
                for pkt in flow.packets:
                    if pkt.ip.proto != IPProto.ICMP:
                        pkt.transport.dst_port = int(port)
            batch = _columns(flows)
        oracle_rng = np.random.default_rng(seed)
        expected = repair_flows_state(list(batch), oracle_rng)
        rng = np.random.default_rng(seed)
        repaired = repair_flows_state(batch, rng)
        assert isinstance(repaired, FlowBatch)
        assert list(repaired) == expected
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        datas, _ = render_flows(repaired)
        assert list(datas) == [p.to_bytes() for f in expected for p in f]

    def test_all_empty_batch_draws_only_ports(self):
        batch = _columns([Flow(), Flow()])
        rng = np.random.default_rng(3)
        oracle = np.random.default_rng(3)
        repair_flows_state([Flow(), Flow()], oracle)
        assert len(repair_flows_state(batch, rng)) == 2
        assert rng.bit_generator.state == oracle.bit_generator.state


# -- batch decode, repair and guidance -------------------------------------
def _random_tensor(seed: int, n: int, height: int) -> np.ndarray:
    """Ternary tensors with random region presence and padding cuts.

    Some option words have exactly half their bits present (the repair's
    keep threshold) and some rows carry one transport region exactly a
    quarter present (the decoder's vote threshold).
    """
    rng = np.random.default_rng(seed)
    tensor = rng.integers(-1, 2, size=(n, height, NPRINT_BITS)).astype(
        np.int8)
    for name in ("tcp", "udp", "icmp"):
        fs = REGION_SLICES[name]
        gone = rng.random((n, height)) < 0.5
        tensor[gone, fs.start:fs.stop] = VACANT
    for name in ("ipv4.options", "tcp.options"):
        fs = FIELDS[name]
        words = tensor[..., fs.start:fs.stop].reshape(n, height, -1, 32)
        half = rng.random(words.shape[:3]) < 0.3
        words[half] = np.where(rng.permutation(32) < 16, VACANT,
                               rng.integers(0, 2, size=32))
        tensor[..., fs.start:fs.stop] = words.reshape(n, height, -1)
    quarter = rng.random((n, height)) < 0.2
    region = REGION_SLICES[str(rng.choice(["tcp", "udp", "icmp"]))]
    tensor[quarter, REGION_SLICES["tcp"].start:] = VACANT
    tensor[quarter, region.start:region.start + region.width // 4] = 0
    ipv4 = REGION_SLICES["ipv4"]
    tensor[..., ipv4.start:ipv4.start + 160][rng.random((n, height)) < 0.7] \
        = rng.integers(0, 2, size=160)
    cut = rng.integers(0, height + 1, size=n)
    tensor[np.arange(height) >= cut[:, None]] = VACANT
    return tensor


def _guidance_oracle(matrix: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The per-matrix structure guidance the batched pass replaced."""
    matrix = np.asarray(matrix, dtype=np.float64).copy()
    row_mean = matrix[:, :160].mean(axis=1)
    packet_rows = row_mean > -0.5
    off = mask < 0.5
    on = ~off
    matrix[np.ix_(packet_rows, off)] = -1.0
    matrix[np.ix_(packet_rows, on)] = np.clip(
        matrix[np.ix_(packet_rows, on)], 0.0, 1.0)
    matrix[~packet_rows, :] = -1.0
    return matrix


def _repair_oracle(matrix: np.ndarray) -> np.ndarray:
    """Per-row scalar structure repair up to the first headerless row."""
    out = np.full_like(matrix, VACANT)
    for r, row in enumerate(matrix):
        if np.mean(row[:160] != VACANT) < 0.5:
            break
        out[r] = repair_row_structure(row)
    return out


class TestBatchDecode:
    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           height=st.integers(1, 8), with_gaps=st.booleans(),
           repaired=st.booleans())
    def test_views_equal_scalar_decode(self, seed, n, height, with_gaps,
                                       repaired):
        tensor = _random_tensor(seed, n, height)
        if repaired:
            tensor = repair_matrix(tensor)
        # negative gaps too: a row never precedes the one before it
        gaps = (np.random.default_rng(seed).uniform(-0.05, 0.1, (n, height))
                if with_gaps else None)
        batch = decode_flow(tensor, gaps=gaps, label="lbl", start_time=1.5)
        assert len(batch) == n
        assert batch.matrices is tensor
        for i in range(n):
            live = ~(tensor[i] == VACANT).all(axis=1)
            count = int(np.argmax(~live)) if not live.all() else height
            clock, expected = 1.5, []
            for r in range(count):
                if r:
                    clock += max(0.0, float(gaps[i, r])
                                 if gaps is not None else 0.001)
                expected.append(decode_packet(tensor[i, r], timestamp=clock))
            assert batch[i] == Flow(packets=expected, label="lbl")
            single = decode_flow(tensor[i], None if gaps is None else gaps[i],
                                 label="lbl", start_time=1.5)
            assert single.flow == batch[i]
        datas, _ = render_flows(batch)
        assert list(datas) == [p.to_bytes() for f in batch for p in f]
        assert list(batch[1:]) == list(batch)[1:]

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
           height=st.integers(1, 6))
    def test_repair_matrix_batch_equals_scalar_rows(self, seed, n, height):
        tensor = _random_tensor(seed, n, height)
        tensor[np.random.default_rng(seed).random((n, height)) < 0.2] = 0
        batch = repair_matrix(tensor)
        for i in range(n):
            assert np.array_equal(batch[i], _repair_oracle(tensor[i]))
            assert np.array_equal(batch[i], repair_matrix(tensor[i]))

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
           height=st.integers(1, 6))
    def test_guidance_batch_and_fused_quantise(self, seed, n, height):
        rng = np.random.default_rng(seed)
        cont = rng.normal(0.0, 0.8, size=(n, height, NPRINT_BITS)).astype(
            np.float32)
        # Borderline values: the quantiser's and clip's edges, and rows
        # whose fixed-IPv4 mean sits on the packet-row threshold.
        cont[rng.random(cont.shape) < 0.05] = 0.5
        cont[rng.random(cont.shape) < 0.05] = -0.5
        cont[rng.random((n, height)) < 0.3, :160] = -0.5
        mask = rng.random(NPRINT_BITS)
        mask[rng.random(NPRINT_BITS) < 0.1] = 0.5
        guided = apply_structure_guidance(cont, mask)
        fused = apply_structure_guidance(cont, mask, quantise=True)
        assert fused.dtype == np.int8
        for i in range(n):
            one = _guidance_oracle(cont[i], mask)
            assert np.array_equal(apply_structure_guidance(cont[i], mask),
                                  one)
            assert np.array_equal(guided[i], one)
            assert np.array_equal(fused[i], quantize_matrix(one))


def test_decoded_columns_follow_the_schema():
    batch = decode_flow(repair_matrix(_random_tensor(0, 3, 4)))
    assert sorted(batch.columns) == sorted(COLUMNS)
    n = batch.n_packets
    for name in INT_COLUMNS:
        assert batch.columns[name].dtype == np.int64
        assert batch.columns[name].shape == (n,)
    assert batch.columns["timestamp"].dtype == np.float64
    for name in ("ip_options", "tcp_options"):
        assert batch.columns[name].shape == (n, 40)
