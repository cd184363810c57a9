"""Protocol-state repair: make generated flows replayable (§4 extension).

The paper names "replayable synthetic network traces" an open challenge:
"there's still a need to further explore methods for enforcing stricter
constraints such as those offered by network protocols" (§4).  The
diffusion model learns per-bit marginals well but cannot guarantee
*cross-packet* protocol state (monotone sequence numbers, a well-formed
handshake), so raw generated TCP flows are flagged by a stateful replay
engine.

This module implements that stricter constraint enforcement as a
post-generation pass.  For a TCP-dominant flow it rebuilds the
conversation-level state while preserving everything the model generated
that a replay engine does not constrain: packet count, payload sizes,
timing, direction pattern, TTLs, windows, options and DSCP marks.

The pass is intentionally *optional* (``generate(..., state_repair=True)``)
so the raw/repaired gap stays measurable — it is reported by the replay
experiment and asserted in the benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.net.flow import Flow
from repro.net.flowbatch import FlowBatch
from repro.net.headers import IPProto, TCPFlags, TCPHeader
from repro.net.packet import Packet, build_packet


def repair_flow_state(
    flow: Flow,
    rng: np.random.Generator | None = None,
    client_port: int | None = None,
) -> Flow:
    """Rebuild protocol state so ``flow`` replays cleanly.

    Non-TCP flows are returned with canonical endpoints only (UDP/ICMP
    carry no sequence state to repair).  TCP flows get a canonical
    three-way handshake, cumulative sequence/acknowledgement numbers and
    a FIN/ACK teardown wrapped around the generated data packets.

    ``client_port`` overrides the canonical client port — generated
    address bits are near-deterministic per class, so flows repaired
    independently can collide on one 5-tuple and interleave under replay;
    :func:`repair_flows_state` passes unique ports to prevent that.
    """
    if not flow.packets:
        return flow
    rng = rng or np.random.default_rng()
    dominant = flow.dominant_protocol
    if dominant != IPProto.TCP:
        # Enforce protocol consistency: a real conversation never mixes
        # transports, and a stray generated TCP row inside a UDP flow
        # would reach the replay engine with no connection state.
        consistent = Flow(
            packets=[p for p in flow.packets if p.ip.proto == dominant],
            label=flow.label,
        )
        return _canonicalise_endpoints(consistent, client_port)
    return _repair_tcp(flow, rng, client_port)


def _endpoints(flow: Flow) -> tuple[int, int, int, int]:
    """Canonical (client_ip, client_port, server_ip, server_port).

    The first packet's source is taken as the client; ports fall back to
    sane defaults when the generated bits are degenerate (0 or equal).
    """
    first = flow.packets[0]
    client_ip = first.ip.src_ip or 0x0A000001
    server_ip = first.ip.dst_ip or 0x17000001
    if client_ip == server_ip:
        server_ip = client_ip ^ 0x00010001
    client_port = first.src_port or 40000
    server_port = first.dst_port or 443
    if client_port == server_port:
        client_port = (client_port + 7) % 65536 or 40000
    return client_ip, client_port, server_ip, server_port


def _direction(pkt: Packet, client_ip: int) -> bool:
    """True when the packet travels client -> server."""
    return pkt.ip.src_ip == client_ip


def _canonicalise_endpoints(flow: Flow,
                            forced_client_port: int | None = None) -> Flow:
    """Rewrite addresses/ports so both directions share one 5-tuple."""
    import copy

    client_ip, client_port, server_ip, server_port = _endpoints(flow)
    if forced_client_port is not None:
        client_port = forced_client_port
        if client_port == server_port:
            server_port = (server_port + 1) % 65536 or 443
    out = Flow(label=flow.label)
    for pkt in flow.packets:
        outbound = _direction(pkt, client_ip) or pkt.ip.src_ip not in (
            client_ip, server_ip)
        repaired = Packet(
            ip=copy.copy(pkt.ip),
            transport=copy.copy(pkt.transport),
            payload=pkt.payload,
            timestamp=pkt.timestamp,
        )
        repaired.ip.src_ip, repaired.ip.dst_ip = (
            (client_ip, server_ip) if outbound else (server_ip, client_ip)
        )
        if repaired.transport is not None and hasattr(
                repaired.transport, "src_port"):
            repaired.transport.src_port, repaired.transport.dst_port = (
                (client_port, server_port) if outbound
                else (server_port, client_port)
            )
        out.packets.append(repaired)
    return out


def _repair_tcp(flow: Flow, rng: np.random.Generator,
                forced_client_port: int | None = None) -> Flow:
    client_ip, client_port, server_ip, server_port = _endpoints(flow)
    if forced_client_port is not None:
        client_port = forced_client_port
        if client_port == server_port:
            server_port = (server_port + 1) % 65536 or 443
    data_packets = [p for p in flow.packets if p.ip.proto == IPProto.TCP]
    rtt = 0.02
    # The handshake is inserted *before* the first generated packet, so
    # keep the whole conversation in non-negative capture time.
    first_ts = max(data_packets[0].timestamp, rtt)

    # Per-side sequence state.
    seq = {
        True: int(rng.integers(1, 2**31)),  # client
        False: int(rng.integers(1, 2**31)),  # server
    }
    ack = {True: 0, False: 0}

    out = Flow(label=flow.label)

    def emit(outbound: bool, flags: int, payload: bytes, template: Packet,
             timestamp: float) -> None:
        src_ip, dst_ip = (client_ip, server_ip) if outbound else (
            server_ip, client_ip)
        sport, dport = (client_port, server_port) if outbound else (
            server_port, client_port)
        header = TCPHeader(
            src_port=sport,
            dst_port=dport,
            seq=seq[outbound] & 0xFFFFFFFF,
            ack=ack[outbound] & 0xFFFFFFFF if flags & TCPFlags.ACK else 0,
            flags=flags,
            window=getattr(template.transport, "window", 65535) or 65535,
            options=getattr(template.transport, "options", b"") or b"",
        )
        out.packets.append(build_packet(
            src_ip, dst_ip, header, payload=payload,
            ttl=template.ip.ttl or 64, timestamp=timestamp,
            dscp=template.ip.dscp,
            identification=template.ip.identification,
        ))
        consumed = len(payload)
        if flags & (TCPFlags.SYN | TCPFlags.FIN):
            consumed += 1
        seq[outbound] = (seq[outbound] + consumed) & 0xFFFFFFFF
        ack[not outbound] = seq[outbound]

    # Canonical handshake just before the generated packets start.
    template = data_packets[0]
    emit(True, int(TCPFlags.SYN), b"", template, first_ts - rtt)
    emit(False, int(TCPFlags.SYN | TCPFlags.ACK), b"", template,
         first_ts - rtt / 2)
    emit(True, int(TCPFlags.ACK), b"", template, first_ts - rtt / 4)

    # Replay the generated data with repaired state.  Direction comes
    # from the generated address bits; degenerate directions fall back to
    # size heuristics (big payloads flow server -> client).
    last_ts = first_ts
    directions_seen = {_direction(p, client_ip) for p in data_packets}
    for pkt in data_packets:
        if len(directions_seen) == 2:
            outbound = _direction(pkt, client_ip)
        else:
            outbound = len(pkt.payload) < 300
        flags = int(TCPFlags.ACK)
        generated = getattr(pkt.transport, "flags", 0)
        if generated & TCPFlags.PSH:
            flags |= int(TCPFlags.PSH)
        timestamp = max(pkt.timestamp, last_ts)
        emit(outbound, flags, pkt.payload, pkt, timestamp)
        last_ts = timestamp

    # Teardown.
    emit(True, int(TCPFlags.FIN | TCPFlags.ACK), b"", template,
         last_ts + rtt / 2)
    emit(False, int(TCPFlags.FIN | TCPFlags.ACK), b"", template,
         last_ts + rtt)
    emit(True, int(TCPFlags.ACK), b"", template, last_ts + 1.5 * rtt)
    return out


def repair_flows_state(flows, rng: np.random.Generator | None = None):
    """Vector form of :func:`repair_flow_state` (skips empty flows).

    Assigns each flow a distinct ephemeral client port so repaired flows
    never collide on a 5-tuple when replayed as one trace.

    A :class:`~repro.net.flowbatch.FlowBatch` is repaired column-wise and
    a new batch returned; it equals the per-flow result flow for flow and
    draws the same values from ``rng``: the port choice, then two initial
    sequence numbers per non-empty TCP-dominant flow, in flow order.
    """
    with perf.timer("emit.state_repair"):
        rng = rng or np.random.default_rng()
        ports = rng.choice(np.arange(49152, 65535), size=len(flows),
                           replace=len(flows) > 65535 - 49152)
        if isinstance(flows, FlowBatch):
            return _repair_batch(flows, rng, ports)
        return [
            repair_flow_state(f, rng, client_port=int(ports[i]))
            if len(f) else f
            for i, f in enumerate(flows)
        ]


_RTT = 0.02
_SEQ_MASK = 0xFFFFFFFF
#: protocols in ascending number: argmax over their counts picks the
#: lowest number on a tie, as ``Flow.dominant_protocol`` does
_PROTOS = (int(IPProto.ICMP), int(IPProto.TCP), int(IPProto.UDP))


def _segment_exclusive(values: np.ndarray, starts: np.ndarray,
                       seg: np.ndarray) -> np.ndarray:
    """Per-segment exclusive prefix sums of an integer array."""
    before = np.cumsum(values) - values
    return before - before[starts][seg]


def _repair_batch(batch: FlowBatch, rng: np.random.Generator,
                  ports: np.ndarray) -> FlowBatch:
    """Columnar :func:`repair_flow_state` over every flow of ``batch``."""
    cols = batch.columns
    counts = batch.packet_counts
    n_flows = len(batch)
    if batch.n_packets == 0:
        return batch
    flow_of = np.repeat(np.arange(n_flows), counts)
    proto = cols["proto"]
    tallies = np.stack([np.bincount(flow_of[proto == p], minlength=n_flows)
                        for p in _PROTOS])
    dominant = np.array(_PROTOS)[np.argmax(tallies, axis=0)]
    live = counts > 0
    is_tcp = live & (dominant == IPProto.TCP)

    # Kept packets: the dominant protocol's (a TCP flow's data packets).
    kept = np.flatnonzero(proto == dominant[flow_of])
    kept_flow = flow_of[kept]
    kept_count = np.bincount(kept_flow, minlength=n_flows)
    kept_start = np.cumsum(kept_count) - kept_count
    rank = np.arange(len(kept)) - kept_start[kept_flow]
    first_kept = np.zeros(n_flows, dtype=np.int64)
    first_kept[live] = kept[kept_start[live]]

    # Canonical endpoints: from the flow's first packet for TCP, the first
    # kept packet otherwise (as _endpoints sees each flow).
    first = np.where(is_tcp, batch.offsets[:-1], first_kept)
    first[~live] = 0
    src0 = cols["src_ip"][first]
    dst0 = cols["dst_ip"][first]
    client_ip = np.where(src0 != 0, src0, 0x0A000001)
    server_ip = np.where(dst0 != 0, dst0, 0x17000001)
    server_ip = np.where(client_ip == server_ip, client_ip ^ 0x00010001,
                         server_ip)
    client_port = ports.astype(np.int64)
    server_port = cols["dport"][first]
    server_port = np.where(server_port != 0, server_port, 443)
    clash = client_port == server_port
    server_port = np.where(clash, (server_port + 1) % 65536, server_port)
    server_port[clash & (server_port == 0)] = 443

    # Output layout: TCP flows gain a 3-packet handshake and teardown.
    new_counts = kept_count + 6 * is_tcp
    offsets = np.zeros(n_flows + 1, dtype=np.int64)
    np.cumsum(new_counts, out=offsets[1:])
    kept_pos = offsets[kept_flow] + 3 * is_tcp[kept_flow] + rank
    source = np.empty(int(offsets[-1]), dtype=np.int64)
    source[kept_pos] = kept
    tcp_flows = np.flatnonzero(is_tcp)
    n_data = kept_count[tcp_flows]
    template = first_kept[tcp_flows]
    handshake = offsets[tcp_flows][:, None] + np.arange(3)
    teardown = handshake + 3 + n_data[:, None]
    source[handshake] = template[:, None]
    source[teardown] = template[:, None]
    out = {name: col[source] for name, col in cols.items()}
    out_flow = np.repeat(np.arange(n_flows), new_counts)

    # Direction: non-TCP packets are outbound unless sent by the server.
    outbound = out["src_ip"] != server_ip[out_flow]
    tcp_rows = is_tcp[out_flow]
    if len(tcp_flows):
        _repair_tcp_columns(
            out, outbound, cols, rng, client_ip[tcp_flows], template,
            n_data, kept[is_tcp[kept_flow]], kept_pos[is_tcp[kept_flow]],
            handshake, teardown,
        )
        for name, value in (("ip_flags", 0x2), ("frag_offset", 0),
                            ("ecn", 0), ("ip_opt_len", 0), ("urgent", 0)):
            out[name][tcp_rows] = value
        out["ip_options"][tcp_rows] = 0
        out["ttl"][tcp_rows & (out["ttl"] == 0)] = 64
        out["window"][tcp_rows & (out["window"] == 0)] = 65535

    ci, si = client_ip[out_flow], server_ip[out_flow]
    out["src_ip"] = np.where(outbound, ci, si)
    out["dst_ip"] = np.where(outbound, si, ci)
    cp, sp = client_port[out_flow], server_port[out_flow]
    ported = out["proto"] != IPProto.ICMP
    out["sport"] = np.where(ported, np.where(outbound, cp, sp), out["sport"])
    out["dport"] = np.where(ported, np.where(outbound, sp, cp), out["dport"])
    return FlowBatch(out, offsets, batch.label)


def _repair_tcp_columns(out, outbound, cols, rng, client_ip, template,
                        n_data, data, data_pos, handshake, teardown) -> None:
    """Sequence state, flags and timestamps of the TCP flows, in place.

    ``data`` are the input rows of every TCP flow's data packets (flow
    by flow), ``data_pos`` their output rows; per-flow arrays are indexed
    by TCP flow.  Each flow's sequence numbers start from two draws of
    ``rng`` (client, then server), as :func:`_repair_tcp` draws them.
    """
    k = len(template)
    draws = rng.integers(1, 2**31, size=2 * k)
    client_isn, server_isn = draws[0::2], draws[1::2]
    seg = np.repeat(np.arange(k), n_data)
    starts = np.cumsum(n_data) - n_data

    # Direction from the address bits when both directions occur, else
    # from the payload size (big payloads flow server -> client).
    from_client = cols["src_ip"][data] == client_ip[seg]
    n_client = np.add.reduceat(from_client.astype(np.int64), starts)
    two_way = (n_client > 0) & (n_client < n_data)
    length = cols["payload_len"][data]
    out_data = np.where(two_way[seg], from_client, length < 300)
    sent_c = np.where(out_data, length, 0)
    sent_s = length - sent_c
    before_c = _segment_exclusive(sent_c, starts, seg)
    before_s = _segment_exclusive(sent_s, starts, seg)
    total_c = np.add.reduceat(sent_c, starts)
    total_s = np.add.reduceat(sent_s, starts)

    c1, s1 = client_isn + 1, server_isn + 1
    data_seq = np.where(out_data, c1[seg] + before_c, s1[seg] + before_s)
    data_ack = np.where(out_data, s1[seg] + before_s, c1[seg] + before_c)
    out["seq"][data_pos] = data_seq & _SEQ_MASK
    out["ack"][data_pos] = data_ack & _SEQ_MASK
    out["tcp_flags"][data_pos] = (
        int(TCPFlags.ACK) | (cols["tcp_flags"][data] & int(TCPFlags.PSH))
    )
    outbound[data_pos] = out_data

    # Capture time never runs backwards: a running max per flow, from the
    # handshake's anchor (never before one RTT).
    first_ts = np.maximum(cols["timestamp"][template], _RTT)
    grid = np.full((k, int(n_data.max())), -np.inf)
    col = np.arange(len(data)) - starts[seg]
    grid[seg, col] = cols["timestamp"][data]
    grid[:, 0] = first_ts
    np.maximum.accumulate(grid, axis=1, out=grid)
    out["timestamp"][data_pos] = grid[seg, col]
    last_ts = grid[np.arange(k), n_data - 1]

    syn, fin, ack = int(TCPFlags.SYN), int(TCPFlags.FIN), int(TCPFlags.ACK)
    for pos, seq, acked, flags, stamps in (
        (handshake,
         (client_isn, server_isn, c1),
         (np.zeros(k, dtype=np.int64), c1, s1),
         (syn, syn | ack, ack),
         (first_ts - _RTT, first_ts - _RTT / 2, first_ts - _RTT / 4)),
        (teardown,
         (c1 + total_c, s1 + total_s, c1 + 1 + total_c),
         (s1 + total_s, c1 + 1 + total_c, s1 + 1 + total_s),
         (fin | ack, fin | ack, ack),
         (last_ts + _RTT / 2, last_ts + _RTT, last_ts + 1.5 * _RTT)),
    ):
        out["seq"][pos] = np.stack(seq, axis=1) & _SEQ_MASK
        out["ack"][pos] = np.stack(acked, axis=1) & _SEQ_MASK
        out["tcp_flags"][pos] = flags
        out["timestamp"][pos] = np.stack(stamps, axis=1)
        out["payload_len"][pos] = 0
        outbound[pos] = (True, False, True)
