"""Packet composition: an IPv4 header plus one transport header plus payload.

The reproduction works at the IP layer (the nprint layout in the paper covers
IPv4/TCP/UDP/ICMP headers only), so a :class:`Packet` is an IPv4 datagram.
Link-layer framing is added/stripped by the pcap layer, which uses
``LINKTYPE_RAW`` to avoid synthesising Ethernet headers the paper never
models.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import perf
from repro.net.checksum import (
    _ones_complement_sum,
    fold_sums,
    ones_complement_rows,
    pseudo_header,
)
from repro.net.headers import (
    ICMPHeader,
    IPProto,
    IPv4Header,
    TCPHeader,
    TransportHeader,
    UDPHeader,
)


@dataclass
class Packet:
    """An IPv4 packet with timestamp, headers, and opaque payload bytes.

    ``timestamp`` is seconds since the epoch (float, microsecond precision
    survives the pcap round trip).  ``payload`` holds application bytes; the
    synthesis pipeline regenerates payload lengths but not payload content,
    matching the paper's header-only nprint representation.
    """

    ip: IPv4Header
    transport: TransportHeader | None = None
    payload: bytes = b""
    timestamp: float = 0.0

    @property
    def proto(self) -> int:
        return self.ip.proto

    @property
    def src_port(self) -> int | None:
        if isinstance(self.transport, (TCPHeader, UDPHeader)):
            return self.transport.src_port
        return None

    @property
    def dst_port(self) -> int | None:
        if isinstance(self.transport, (TCPHeader, UDPHeader)):
            return self.transport.dst_port
        return None

    @property
    def total_length(self) -> int:
        """On-wire IPv4 total length of this packet once packed."""
        return len(self.to_bytes())

    def to_bytes(self) -> bytes:
        """Serialise to wire bytes with valid checksums and lengths."""
        transport_bytes = b""
        if isinstance(self.transport, TCPHeader):
            transport_bytes = self.transport.pack(
                self.ip.src_ip, self.ip.dst_ip, self.payload
            )
        elif isinstance(self.transport, UDPHeader):
            transport_bytes = self.transport.pack(
                self.ip.src_ip, self.ip.dst_ip, self.payload
            )
        elif isinstance(self.transport, ICMPHeader):
            transport_bytes = self.transport.pack(self.payload)
        ip_bytes = self.ip.pack(len(transport_bytes) + len(self.payload))
        return ip_bytes + transport_bytes + self.payload

    @classmethod
    def from_bytes(cls, data: bytes, timestamp: float = 0.0) -> "Packet":
        """Parse wire bytes back into a structured packet."""
        return parse_packet(data, timestamp)


def build_packet(
    src_ip: int,
    dst_ip: int,
    transport: TransportHeader,
    payload: bytes = b"",
    ttl: int = 64,
    timestamp: float = 0.0,
    **ip_fields,
) -> Packet:
    """Construct a packet, inferring the IP protocol from the transport type.

    Extra keyword arguments are forwarded to :class:`IPv4Header` so callers
    can pin identification, DSCP, fragment flags, etc.
    """
    if isinstance(transport, TCPHeader):
        proto = int(IPProto.TCP)
    elif isinstance(transport, UDPHeader):
        proto = int(IPProto.UDP)
    elif isinstance(transport, ICMPHeader):
        proto = int(IPProto.ICMP)
    else:
        raise TypeError(f"unsupported transport header: {type(transport)!r}")
    ip = IPv4Header(src_ip=src_ip, dst_ip=dst_ip, proto=proto, ttl=ttl, **ip_fields)
    return Packet(ip=ip, transport=transport, payload=payload, timestamp=timestamp)


def parse_packet(data: bytes, timestamp: float = 0.0) -> Packet:
    """Parse an IPv4 datagram; unknown protocols keep the payload opaque."""
    ip = IPv4Header.unpack(data)
    rest = data[ip.header_length :]
    if ip.total_length is not None and ip.total_length <= len(data):
        # Honour the IP total length; trailing link padding is dropped.
        rest = data[ip.header_length : ip.total_length]

    transport: TransportHeader | None = None
    payload = rest
    if ip.proto == IPProto.TCP and len(rest) >= 20:
        transport = TCPHeader.unpack(rest)
        payload = rest[transport.header_length :]
    elif ip.proto == IPProto.UDP and len(rest) >= 8:
        transport = UDPHeader.unpack(rest)
        payload = rest[8:]
    elif ip.proto == IPProto.ICMP and len(rest) >= 8:
        transport = ICMPHeader.unpack(rest)
        payload = rest[8:]
    return Packet(ip=ip, transport=transport, payload=payload, timestamp=timestamp)


def _fold16(total: int) -> int:
    """Fold a ones-complement accumulator into 16 bits (RFC 1071)."""
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


class PacketRenderer:
    """Header-template cache for rendering many similar packets to bytes.

    Packets within a generated flow share almost every header field; only
    lengths, sequence numbers and checksums change packet to packet.  The
    renderer packs the constant portion of each header once per distinct
    field combination (with the varying fields zeroed) together with its
    folded ones-complement partial sum, then per packet patches the
    varying fields in place and finishes the checksum incrementally —
    RFC 1071 sums are word-order-independent, so ``fold(base + varying
    words)`` equals the checksum over the fully packed bytes.

    Output is byte-identical to :meth:`Packet.to_bytes` (pinned by the
    test suite).  The caches are bounded; on overflow they reset, which
    only costs re-packing.
    """

    #: per-cache entry bound; generated traffic uses a handful of entries
    MAX_ENTRIES = 4096

    def __init__(self) -> None:
        self._ip_cache: dict = {}
        self._transport_cache: dict = {}

    def render(self, pkt: Packet) -> bytes:
        """Wire bytes of ``pkt``, equal to ``pkt.to_bytes()``."""
        transport = pkt.transport
        if isinstance(transport, TCPHeader):
            transport_bytes = self._render_tcp(
                transport, pkt.ip.src_ip, pkt.ip.dst_ip, pkt.payload
            )
        elif isinstance(transport, UDPHeader):
            transport_bytes = self._render_udp(
                transport, pkt.ip.src_ip, pkt.ip.dst_ip, pkt.payload
            )
        elif isinstance(transport, ICMPHeader):
            transport_bytes = self._render_icmp(transport, pkt.payload)
        else:
            return pkt.to_bytes()
        ip_bytes = self._render_ip(
            pkt.ip, len(transport_bytes) + len(pkt.payload)
        )
        return ip_bytes + transport_bytes + pkt.payload

    # -- per-protocol templates ----------------------------------------------
    def _cached(self, cache: dict, key, build):
        hit = cache.get(key)
        if hit is None:
            if len(cache) >= self.MAX_ENTRIES:
                cache.clear()
            hit = cache[key] = build()
            perf.incr("packet.render_templates")
        return hit

    def _render_ip(self, ip: IPv4Header, payload_length: int) -> bytes:
        key = (
            ip.src_ip, ip.dst_ip, ip.proto, ip.dscp, ip.ecn,
            ip.flags, ip.fragment_offset, ip.options, ip.version,
        )

        def build():
            ip.validate()
            padded = ip.options + b"\x00" * (-len(ip.options) % 4)
            head = struct.pack(
                ">BBHHHBBHII",
                (ip.version << 4) | ip.ihl,
                (ip.dscp << 2) | ip.ecn,
                0,  # total_length, patched per packet
                0,  # identification, patched per packet
                (ip.flags << 13) | ip.fragment_offset,
                0,  # ttl, patched per packet
                ip.proto,
                0,  # checksum, patched per packet
                ip.src_ip,
                ip.dst_ip,
            ) + padded
            return bytearray(head), _ones_complement_sum(head)

        buf, base = self._cached(self._ip_cache, key, build)
        total = ip.total_length
        if total is None:
            total = len(buf) + payload_length
        # ttl shares its 16-bit checksum word with proto (already in base).
        varying = total + ip.identification + (ip.ttl << 8)
        csum = ~_fold16(base + varying) & 0xFFFF
        struct.pack_into(">HH", buf, 2, total, ip.identification)
        buf[8] = ip.ttl
        struct.pack_into(">H", buf, 10, csum)
        return bytes(buf)

    def _render_tcp(
        self, tcp: TCPHeader, src_ip: int, dst_ip: int, payload: bytes
    ) -> bytes:
        key = (
            "tcp", src_ip, dst_ip, tcp.src_port, tcp.dst_port,
            tcp.reserved, tcp.options,
        )

        def build():
            tcp.validate()
            padded = tcp.options + b"\x00" * (-len(tcp.options) % 4)
            head = struct.pack(
                ">HHIIHHHH",
                tcp.src_port,
                tcp.dst_port,
                0,  # seq, patched per packet
                0,  # ack, patched per packet
                # flags patched per packet; offset/reserved are key-stable
                (tcp.data_offset << 12) | (tcp.reserved << 8),
                0,  # window, patched per packet
                0,  # checksum, patched per packet
                0,  # urgent pointer, patched per packet
            ) + padded
            pseudo = pseudo_header(src_ip, dst_ip, int(IPProto.TCP), 0)
            return bytearray(head), _ones_complement_sum(pseudo + head)

        buf, base = self._cached(self._transport_cache, key, build)
        segment_len = len(buf) + len(payload)
        # flags occupy the low byte of the offset word already summed in
        # base (reserved sits in bits 8-11), so adding them cannot carry
        # into overlapping bits.
        total = (
            base + segment_len
            + (tcp.seq >> 16) + (tcp.seq & 0xFFFF)
            + (tcp.ack >> 16) + (tcp.ack & 0xFFFF)
            + tcp.flags + tcp.window + tcp.urgent_pointer
            + _ones_complement_sum(payload)
        )
        csum = ~_fold16(total) & 0xFFFF
        offset_word = (
            (tcp.data_offset << 12) | (tcp.reserved << 8) | tcp.flags
        )
        struct.pack_into(
            ">IIHHHH", buf, 4, tcp.seq, tcp.ack, offset_word,
            tcp.window, csum, tcp.urgent_pointer,
        )
        return bytes(buf)

    def _render_udp(
        self, udp: UDPHeader, src_ip: int, dst_ip: int, payload: bytes
    ) -> bytes:
        key = ("udp", src_ip, dst_ip, udp.src_port, udp.dst_port)

        def build():
            udp.validate()
            head = struct.pack(
                ">HHHH", udp.src_port, udp.dst_port, 0, 0
            )  # length and checksum patched per packet
            pseudo = pseudo_header(src_ip, dst_ip, int(IPProto.UDP), 0)
            return bytearray(head), _ones_complement_sum(pseudo + head)

        buf, base = self._cached(self._transport_cache, key, build)
        length = udp.length
        if length is None:
            length = len(buf) + len(payload)
        # The datagram length appears twice: pseudo-header and UDP header.
        total = base + length + length + _ones_complement_sum(payload)
        csum = ~_fold16(total) & 0xFFFF
        if csum == 0:
            csum = 0xFFFF  # RFC 768: zero means "no checksum"
        struct.pack_into(">HH", buf, 4, length, csum)
        return bytes(buf)

    def _render_icmp(self, icmp: ICMPHeader, payload: bytes) -> bytes:
        key = ("icmp", icmp.icmp_type, icmp.code)

        def build():
            icmp.validate()
            head = struct.pack(
                ">BBHI", icmp.icmp_type, icmp.code, 0, 0
            )  # rest patched per packet
            return bytearray(head), _ones_complement_sum(head)

        buf, base = self._cached(self._transport_cache, key, build)
        rest = icmp.rest
        total = base + (rest >> 16) + (rest & 0xFFFF)
        csum = ~_fold16(total + _ones_complement_sum(payload)) & 0xFFFF
        struct.pack_into(">HI", buf, 2, csum, rest)
        return bytes(buf)


#: the columnar renderer's header layouts: big-endian wire fields, no padding
_IPV4_LAYOUT = np.dtype([
    ("ver_ihl", "u1"), ("tos", "u1"), ("total", ">u2"), ("ident", ">u2"),
    ("flags_frag", ">u2"), ("ttl", "u1"), ("proto", "u1"),
    ("csum", ">u2"), ("src", ">u4"), ("dst", ">u4"),
    ("options", "u1", (40,)),
])
_TCP_LAYOUT = np.dtype([
    ("sport", ">u2"), ("dport", ">u2"), ("seq", ">u4"), ("ack", ">u4"),
    ("offset", "u1"), ("flags", "u1"), ("window", ">u2"), ("csum", ">u2"),
    ("urgent", ">u2"), ("options", "u1", (40,)),
])
_UDP_LAYOUT = np.dtype([
    ("sport", ">u2"), ("dport", ">u2"), ("length", ">u2"), ("csum", ">u2"),
])
_ICMP_LAYOUT = np.dtype([
    ("type", "u1"), ("code", "u1"), ("csum", ">u2"), ("rest", ">u4"),
])

#: bytes reserved before each packet of a RenderedPackets buffer
RECORD_HEADER_BYTES = 16


class RenderedPackets(Sequence):
    """Wire bytes of many packets in one buffer, as a ``Sequence[bytes]``.

    Packet ``i`` is ``buffer[starts[i]:starts[i] + lengths[i]]``.  The
    :data:`RECORD_HEADER_BYTES` before each packet are reserved for its
    pcap record header, so :meth:`repro.net.pcap.PcapWriter.write_many`
    fills those in and writes the whole buffer at once.
    """

    def __init__(self, buffer: np.ndarray, starts: np.ndarray,
                 lengths: np.ndarray):
        self.buffer = buffer
        self.starts = starts
        self.lengths = lengths

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        start = int(self.starts[index])
        return self.buffer[start : start + int(self.lengths[index])].tobytes()

    def __iter__(self):
        data = self.buffer.tobytes()
        for start, length in zip(self.starts.tolist(), self.lengths.tolist()):
            yield data[start : start + length]


def _ip_word_sums(cols, rows) -> np.ndarray:
    """Sum of the source and destination address words of ``rows``."""
    src, dst = cols["src_ip"][rows], cols["dst_ip"][rows]
    return (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)


def _complement(sums: np.ndarray) -> np.ndarray:
    return ~sums & 0xFFFF


def _scatter(buffer: np.ndarray, at: np.ndarray, rows: np.ndarray,
             lengths: np.ndarray) -> None:
    """Copy the first ``lengths[i]`` bytes of ``rows[i]`` to ``at[i]``."""
    span = np.arange(rows.shape[1])
    sel = span < lengths[:, None]
    buffer[(at[:, None] + span)[sel]] = rows[sel]


def _render_batch(batch) -> RenderedPackets:
    """Every packet of a FlowBatch as wire bytes, equal to ``to_bytes``.

    Headers are filled column-wise into structured arrays that share the
    wire layout; checksums are vectorised one's-complement sums (payloads
    are zero bytes, so they add only their length, through the
    pseudo-header), and the headers are scattered into one zeroed buffer.
    """
    c = batch.columns
    n = batch.n_packets
    proto = c["proto"]
    tcp = proto == IPProto.TCP
    udp = proto == IPProto.UDP
    icmp = proto == IPProto.ICMP
    # Options are zero-padded to whole 32-bit words, as pack() pads them.
    ip_len = 20 + (c["ip_opt_len"] + 3) // 4 * 4
    transport_len = np.where(tcp, 20 + (c["tcp_opt_len"] + 3) // 4 * 4,
                             np.where(udp | icmp, 8, 0))
    payload = c["payload_len"]
    lengths = ip_len + transport_len + payload

    ip = np.zeros(n, _IPV4_LAYOUT)
    ip["ver_ihl"] = 0x40 | (ip_len >> 2)
    ip["tos"] = (c["dscp"] << 2) | c["ecn"]
    ip["total"] = lengths
    ip["ident"] = c["identification"]
    ip["flags_frag"] = (c["ip_flags"] << 13) | c["frag_offset"]
    ip["ttl"] = c["ttl"]
    ip["proto"] = proto
    ip["src"] = c["src_ip"]
    ip["dst"] = c["dst_ip"]
    ip["options"] = c["ip_options"]
    ip_bytes = ip.view(np.uint8).reshape(n, _IPV4_LAYOUT.itemsize)
    ip["csum"] = _complement(ones_complement_rows(ip_bytes))

    head = np.zeros((n, _TCP_LAYOUT.itemsize), dtype=np.uint8)
    if tcp.any():
        t = np.zeros(int(tcp.sum()), _TCP_LAYOUT)
        for field, column in (("sport", "sport"), ("dport", "dport"),
                              ("seq", "seq"), ("ack", "ack"),
                              ("flags", "tcp_flags"), ("window", "window"),
                              ("urgent", "urgent"),
                              ("options", "tcp_options")):
            t[field] = c[column][tcp]
        t["offset"] = (transport_len[tcp] >> 2) << 4
        t_bytes = t.view(np.uint8).reshape(len(t), _TCP_LAYOUT.itemsize)
        pseudo = (_ip_word_sums(c, tcp) + int(IPProto.TCP)
                  + transport_len[tcp] + payload[tcp])
        t["csum"] = _complement(ones_complement_rows(t_bytes, pseudo))
        head[tcp] = t_bytes
    if udp.any():
        u = np.zeros(int(udp.sum()), _UDP_LAYOUT)
        u["sport"] = c["sport"][udp]
        u["dport"] = c["dport"][udp]
        length = 8 + payload[udp]
        u["length"] = length
        # The datagram length appears twice: pseudo-header and header.
        csum = _complement(fold_sums(
            _ip_word_sums(c, udp) + int(IPProto.UDP) + 2 * length
            + c["sport"][udp] + c["dport"][udp]))
        csum[csum == 0] = 0xFFFF  # RFC 768: zero means "no checksum"
        u["csum"] = csum
        head[udp, :8] = u.view(np.uint8).reshape(len(u), 8)
    if icmp.any():
        m = np.zeros(int(icmp.sum()), _ICMP_LAYOUT)
        m["type"] = c["icmp_type"][icmp]
        m["code"] = c["icmp_code"][icmp]
        m["rest"] = c["icmp_rest"][icmp]
        m_bytes = m.view(np.uint8).reshape(len(m), 8)
        m["csum"] = _complement(ones_complement_rows(m_bytes))
        head[icmp, :8] = m_bytes

    starts = np.cumsum(RECORD_HEADER_BYTES + lengths) - lengths
    buffer = np.zeros(int(starts[-1] + lengths[-1]) if n else 0,
                      dtype=np.uint8)
    _scatter(buffer, starts, ip_bytes, ip_len)
    _scatter(buffer, starts + ip_len, head, transport_len)
    return RenderedPackets(buffer, starts, lengths)


def render_flows(flows, renderer: PacketRenderer | None = None):
    """Render every packet of ``flows`` to wire bytes, flow-major.

    Returns ``(datas, timestamps)`` ready for
    :meth:`repro.net.pcap.PcapWriter.write_many`.  A
    :class:`~repro.net.flowbatch.FlowBatch` renders column-wise into one
    buffer (``datas`` is then a :class:`RenderedPackets` view over it);
    any other sequence of flows goes packet by packet through
    ``renderer``.
    """
    from repro.net.flowbatch import FlowBatch

    with perf.timer("emit.render"):
        if isinstance(flows, FlowBatch):
            datas = _render_batch(flows)
            stamps = flows.columns["timestamp"].copy()
            nbytes = int(datas.lengths.sum())
        else:
            renderer = renderer or PacketRenderer()
            datas = []
            stamps = []
            for flow in flows:
                for pkt in flow.packets:
                    datas.append(renderer.render(pkt))
                    stamps.append(pkt.timestamp)
            stamps = np.asarray(stamps, dtype=np.float64)
            nbytes = sum(len(d) for d in datas)
        perf.incr("packet.bytes_rendered", nbytes)
    return datas, stamps
