"""nprint ternary matrices -> valid packets (the pcap back-transform).

Decoding a row that came straight from :func:`repro.nprint.encoder.encode_packet`
is lossless.  Decoding a row produced by a generative model is not: bits may
disagree with each other (a checksum that does not verify, an IHL that does
not match the option bits, a protocol field that contradicts which transport
region is populated).  The decoder therefore runs a *repair pass* — the
paper's "back-transformed into nprint and finally into pcap format" step —
that resolves every inconsistency in favour of structural validity:

1. the active transport is chosen by region occupancy (vote of non-vacant
   bits), cross-checked against the IPv4 protocol field;
2. IPv4 version/IHL/total-length are recomputed from the actual structure;
3. all checksums are recomputed by the header ``pack`` methods.

With ``strict=True`` the repair pass is disabled and any inconsistency
raises :class:`NprintDecodeError` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import perf
from repro.net.flow import Flow
from repro.net.flowbatch import FlowBatch
from repro.net.headers import (
    ICMPHeader,
    IPProto,
    IPv4Header,
    TCPHeader,
    UDPHeader,
)
from repro.net.packet import Packet
from repro.nprint.fields import (
    FIELDS,
    ICMP_BITS,
    ICMP_OFFSET,
    NPRINT_BITS,
    REGION_SLICES,
    TCP_BITS,
    TCP_OFFSET,
    UDP_BITS,
    UDP_OFFSET,
    VACANT,
    FieldSlice,
)


class NprintDecodeError(ValueError):
    """Raised in strict mode when a row cannot be decoded consistently."""


def _read_field(row: np.ndarray, fs: FieldSlice, vacant_as_zero: bool = True) -> int:
    """Read the unsigned integer value of a named field slice."""
    value = 0
    for bit in row[fs.start : fs.stop]:
        b = int(bit)
        if b == VACANT:
            if not vacant_as_zero:
                raise NprintDecodeError(f"vacant bit inside field {fs.name}")
            b = 0
        value = (value << 1) | (b & 1)
    return value


def read_field(row: np.ndarray, name: str) -> int:
    """Public accessor: read field ``name`` (see ``fields.FIELDS``) from a row."""
    return _read_field(row, FIELDS[name])


def region_occupancy(row: np.ndarray) -> dict[str, float]:
    """Fraction of non-vacant bits in each of the four header regions."""
    result = {}
    for name, fs in REGION_SLICES.items():
        region = row[fs.start : fs.stop]
        result[name] = float(np.mean(region != VACANT))
    return result


def is_vacant_row(row: np.ndarray) -> bool:
    """True when the row encodes no packet at all (flow padding)."""
    return bool(np.all(row == VACANT))


def infer_transport(row: np.ndarray) -> int | None:
    """Decide which transport the row carries, by region occupancy vote.

    Returns an :class:`IPProto` value or None when no transport region has
    meaningful occupancy (e.g. a bare IP fragment).
    """
    occ = region_occupancy(row)
    candidates = {
        int(IPProto.TCP): occ["tcp"],
        int(IPProto.UDP): occ["udp"],
        int(IPProto.ICMP): occ["icmp"],
    }
    proto, score = max(candidates.items(), key=lambda kv: kv[1])
    if score < 0.25:
        return None
    return proto


def _bits_to_bytes(row: np.ndarray, start: int, nbytes: int) -> bytes:
    bits = np.where(row[start : start + nbytes * 8] == 1, 1, 0).astype(np.uint8)
    return np.packbits(bits).tobytes()


def _option_length(row: np.ndarray, fs: FieldSlice) -> int:
    """Number of option bytes actually present (non-vacant), word aligned."""
    region = row[fs.start : fs.stop]
    present = int(np.sum(region != VACANT))
    nbytes = present // 8
    return (nbytes // 4) * 4


def decode_packet(
    row: np.ndarray,
    timestamp: float = 0.0,
    strict: bool = False,
) -> Packet:
    """Decode one nprint row into a valid :class:`Packet`.

    The returned packet always serialises to wire-valid bytes; field values
    that survive the repair pass are exactly the bits in the row.
    """
    if row.shape != (NPRINT_BITS,):
        raise ValueError(f"expected a ({NPRINT_BITS},) row, got {row.shape}")
    if is_vacant_row(row):
        raise NprintDecodeError("cannot decode an all-vacant row")

    proto = infer_transport(row)
    declared_proto = _read_field(row, FIELDS["ipv4.proto"])
    if strict and proto is not None and declared_proto != proto:
        raise NprintDecodeError(
            f"ipv4.proto={declared_proto} contradicts populated region "
            f"(expected {proto})"
        )
    if proto is None:
        proto = declared_proto if declared_proto in (1, 6, 17) else int(IPProto.TCP)

    transport, transport_len = _decode_transport(row, proto, strict)

    ip = IPv4Header(
        version=4,
        dscp=_read_field(row, FIELDS["ipv4.dscp"]),
        ecn=_read_field(row, FIELDS["ipv4.ecn"]),
        identification=_read_field(row, FIELDS["ipv4.identification"]),
        flags=_read_field(row, FIELDS["ipv4.flags"]),
        fragment_offset=_read_field(row, FIELDS["ipv4.fragment_offset"]),
        ttl=_read_field(row, FIELDS["ipv4.ttl"]),
        proto=proto,
        src_ip=_read_field(row, FIELDS["ipv4.src_ip"]),
        dst_ip=_read_field(row, FIELDS["ipv4.dst_ip"]),
        options=_decode_options(row, FIELDS["ipv4.options"]),
    )
    if strict:
        declared_version = _read_field(row, FIELDS["ipv4.version"])
        if declared_version != 4:
            raise NprintDecodeError(f"ipv4.version={declared_version} != 4")

    # Reconstruct payload length from the declared total length; the nprint
    # representation does not carry payload content, so the decoder emits
    # zero bytes of the right length ("repair" semantics).
    declared_total = _read_field(row, FIELDS["ipv4.total_length"])
    header_len = ip.header_length + transport_len
    payload_len = max(0, declared_total - header_len)
    payload_len = min(payload_len, 65535 - header_len)
    payload = b"\x00" * payload_len

    return Packet(ip=ip, transport=transport, payload=payload, timestamp=timestamp)


def _decode_options(row: np.ndarray, fs: FieldSlice) -> bytes:
    nbytes = _option_length(row, fs)
    if nbytes == 0:
        return b""
    return _bits_to_bytes(row, fs.start, nbytes)


def _decode_transport(row: np.ndarray, proto: int, strict: bool):
    """Decode the transport header for ``proto``; returns (header, length)."""
    if proto == IPProto.TCP:
        tcp = TCPHeader(
            src_port=_read_field(row, FIELDS["tcp.src_port"]),
            dst_port=_read_field(row, FIELDS["tcp.dst_port"]),
            seq=_read_field(row, FIELDS["tcp.seq"]),
            ack=_read_field(row, FIELDS["tcp.ack"]),
            reserved=0,
            flags=_read_field(row, FIELDS["tcp.flags"]),
            window=_read_field(row, FIELDS["tcp.window"]),
            urgent_pointer=_read_field(row, FIELDS["tcp.urgent_pointer"]),
            options=_decode_options(row, FIELDS["tcp.options"]),
        )
        if strict:
            declared_offset = _read_field(row, FIELDS["tcp.data_offset"])
            if declared_offset != tcp.data_offset:
                raise NprintDecodeError(
                    f"tcp.data_offset={declared_offset} inconsistent with "
                    f"options ({tcp.data_offset})"
                )
        return tcp, tcp.header_length
    if proto == IPProto.UDP:
        udp = UDPHeader(
            src_port=_read_field(row, FIELDS["udp.src_port"]),
            dst_port=_read_field(row, FIELDS["udp.dst_port"]),
        )
        return udp, 8
    if proto == IPProto.ICMP:
        icmp = ICMPHeader(
            icmp_type=_read_field(row, FIELDS["icmp.type"]),
            code=_read_field(row, FIELDS["icmp.code"]),
            rest=_read_field(row, FIELDS["icmp.rest"]),
        )
        return icmp, 8
    return None, 0


@dataclass
class DecodedFlow:
    """A decoded flow plus per-row decode diagnostics."""

    flow: Flow
    repaired_rows: int = 0
    skipped_rows: int = 0


# Transport regions in the same order as infer_transport's candidate
# dict, so occupancy ties resolve identically (first maximum wins).
_TRANSPORT_REGIONS = (
    (int(IPProto.TCP), REGION_SLICES["tcp"]),
    (int(IPProto.UDP), REGION_SLICES["udp"]),
    (int(IPProto.ICMP), REGION_SLICES["icmp"]),
)

# Byte offsets of the regions in a packed row: every region starts on a
# byte boundary, so ``np.packbits`` of a row is its wire header bytes.
_IP = REGION_SLICES["ipv4"].start // 8
_TCP = REGION_SLICES["tcp"].start // 8
_UDP = REGION_SLICES["udp"].start // 8
_ICMP = REGION_SLICES["icmp"].start // 8
_OPTS = 20  # option bytes start after the fixed 20-byte IPv4/TCP header


def _be(packed: np.ndarray, start: int, nbytes: int) -> np.ndarray:
    """Big-endian unsigned value of bytes ``start:start+nbytes`` per row."""
    out = packed[:, start].astype(np.int64)
    for k in range(1, nbytes):
        out = (out << 8) | packed[:, start + k]
    return out


def _decode_columns(rows: np.ndarray) -> dict[str, np.ndarray]:
    """Non-strict :func:`decode_packet` of every live row, as columns.

    Field values come from one ``np.packbits`` of the +1 bits (vacant
    reads as 0, as in :func:`_read_field`); the transport vote, option
    lengths and payload length follow :func:`decode_packet` exactly.
    The caller adds the ``timestamp`` column.
    """
    packed = np.packbits(rows == 1, axis=1)
    present = rows != VACANT

    def count(fs: FieldSlice) -> np.ndarray:
        return np.count_nonzero(present[:, fs.start : fs.stop], axis=1)

    n = len(rows)
    # count / width is bitwise the float np.mean gives the scalar vote.
    occ = np.stack([count(fs) / fs.width for _, fs in _TRANSPORT_REGIONS])
    vote = np.argmax(occ, axis=0)
    voted = np.array([p for p, _ in _TRANSPORT_REGIONS])[vote]
    no_vote = occ[vote, np.arange(n)] < 0.25
    declared = packed[:, _IP + 9].astype(np.int64)
    fallback = np.where(
        np.isin(declared, (1, 6, 17)), declared, int(IPProto.TCP)
    )
    proto = np.where(no_vote, fallback, voted)
    tcp = proto == IPProto.TCP
    udp = proto == IPProto.UDP
    icmp = proto == IPProto.ICMP

    ip_opt_len = count(FIELDS["ipv4.options"]) // 32 * 4
    tcp_opt_len = np.where(tcp, count(FIELDS["tcp.options"]) // 32 * 4, 0)
    width = np.arange(40)
    ip_options = packed[:, _IP + _OPTS : _IP + 60] * (
        width < ip_opt_len[:, None])
    tcp_options = packed[:, _TCP + _OPTS : _TCP + 60] * (
        width < tcp_opt_len[:, None])

    header_len = 20 + ip_opt_len + np.where(tcp, 20 + tcp_opt_len, 8)
    payload_len = np.minimum(
        np.maximum(_be(packed, _IP + 2, 2) - header_len, 0),
        65535 - header_len,
    )

    def on(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
        return np.where(mask, values, 0)

    tos = packed[:, _IP + 1].astype(np.int64)
    return {
        "proto": proto,
        "src_ip": _be(packed, _IP + 12, 4),
        "dst_ip": _be(packed, _IP + 16, 4),
        "dscp": tos >> 2,
        "ecn": tos & 0x3,
        "identification": _be(packed, _IP + 4, 2),
        "ip_flags": packed[:, _IP + 6].astype(np.int64) >> 5,
        "frag_offset": _be(packed, _IP + 6, 2) & 0x1FFF,
        "ttl": packed[:, _IP + 8].astype(np.int64),
        "ip_opt_len": ip_opt_len,
        "sport": np.where(tcp, _be(packed, _TCP, 2),
                          on(udp, _be(packed, _UDP, 2))),
        "dport": np.where(tcp, _be(packed, _TCP + 2, 2),
                          on(udp, _be(packed, _UDP + 2, 2))),
        "seq": on(tcp, _be(packed, _TCP + 4, 4)),
        "ack": on(tcp, _be(packed, _TCP + 8, 4)),
        "tcp_flags": on(tcp, packed[:, _TCP + 13].astype(np.int64)),
        "window": on(tcp, _be(packed, _TCP + 14, 2)),
        "urgent": on(tcp, _be(packed, _TCP + 18, 2)),
        "tcp_opt_len": tcp_opt_len,
        "icmp_type": on(icmp, packed[:, _ICMP].astype(np.int64)),
        "icmp_code": on(icmp, packed[:, _ICMP + 1].astype(np.int64)),
        "icmp_rest": on(icmp, _be(packed, _ICMP + 4, 4)),
        "payload_len": payload_len,
        "ip_options": ip_options,
        "tcp_options": tcp_options,
    }


def _clocks(gaps, n: int, height: int, start_time: float) -> np.ndarray:
    """``(n, height)`` capture time of every row of ``n`` flows.

    Row ``i > 0`` follows row ``i - 1`` by ``max(0, gaps[i])`` (1 ms when
    no gap is given), accumulated left to right from ``start_time`` in
    the same float order as a running ``clock += gap``.
    """
    steps = np.full((n, height), 0.001)
    if gaps is not None:
        gaps = np.asarray(gaps, dtype=np.float64).reshape(n, -1)
        k = min(gaps.shape[1], height)
        steps[:, :k] = gaps[:, :k]
    steps = np.where(steps > 0.0, steps, 0.0)  # max(0.0, gap)
    steps[:, 0] = start_time
    return np.add.accumulate(steps, axis=1)


def _decode_batch(matrices: np.ndarray, gaps, label: str,
                  start_time: float) -> FlowBatch:
    n, height = matrices.shape[:2]
    vacant = (matrices == VACANT).all(axis=2)
    counts = np.where(vacant.any(axis=1), np.argmax(vacant, axis=1), height)
    live = np.arange(height) < counts[:, None]
    columns = _decode_columns(matrices[live])
    columns["timestamp"] = _clocks(gaps, n, height, start_time)[live]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return FlowBatch(columns, offsets, label, matrices=matrices)


def decode_flow(
    matrix: np.ndarray,
    gaps: np.ndarray | None = None,
    label: str = "",
    start_time: float = 0.0,
    strict: bool = False,
):
    """Decode a ``(P, 1088)`` ternary matrix back into a :class:`Flow`.

    ``gaps`` optionally supplies inter-arrival seconds per row (see
    :func:`repro.nprint.encoder.interarrival_channel`); without it packets
    are spaced 1 ms apart.  All-vacant rows terminate the flow (padding);
    rows that fail strict decoding are skipped and counted in the result
    when ``strict`` is False.

    A ``(n, P, 1088)`` batch (with ``(n, P)`` gaps) decodes every flow in
    one columnar pass and returns a :class:`~repro.net.flowbatch.FlowBatch`
    whose flows equal the per-matrix results and whose ``matrices`` is
    the batch itself; batches are non-strict.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim == 3 and matrix.shape[2] == NPRINT_BITS:
        if strict:
            raise ValueError("strict decoding takes one (P, 1088) matrix")
        with perf.timer("emit.decode"):
            return _decode_batch(matrix, gaps, label, start_time)
    if matrix.ndim != 2 or matrix.shape[1] != NPRINT_BITS:
        raise ValueError(f"expected (P, {NPRINT_BITS}) matrix, got {matrix.shape}")
    if not strict:
        # Non-strict decoding never raises (vacant bits read as zero), so
        # the flow goes through the columnar path as a batch of one.
        batch = _decode_batch(matrix[None], gaps, label, start_time)
        return DecodedFlow(flow=batch[0])
    flow = Flow(label=label)
    result = DecodedFlow(flow=flow)
    vacant = (matrix == VACANT).all(axis=1)
    count = int(np.argmax(vacant)) if vacant.any() else matrix.shape[0]
    clocks = _clocks(gaps, 1, matrix.shape[0], start_time)[0]
    for i in range(count):
        flow.packets.append(
            decode_packet(matrix[i], timestamp=float(clocks[i]), strict=True)
        )
    return result
