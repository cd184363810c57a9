"""Columnar flows: the packets of many flows as one set of arrays.

Generated traffic is emitted column-wise: one array per header field,
covering every packet of every flow in a batch (flow-major), plus an
``offsets`` array delimiting the flows.  Decoding, state repair and
rendering all operate on these columns with array operations, so a
256-flow chunk never builds per-packet Python objects on its way from
the nprint tensor to pcap bytes.

:class:`FlowBatch` is also a ``Sequence[Flow]``: indexing or iterating
it builds :class:`~repro.net.flow.Flow` / :class:`~repro.net.packet.Packet`
objects on demand, for API callers that want them.  Payloads in a batch
are all-zero bytes of ``payload_len`` (the nprint representation carries
header bits only), which is what lets rendering treat them as lengths.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

import numpy as np

from repro.net.flow import Flow
from repro.net.headers import (
    ICMPHeader,
    IPProto,
    IPv4Header,
    TCPHeader,
    UDPHeader,
)
from repro.net.packet import Packet

#: integer header columns, one int64 value per packet.  Fields that do not
#: apply to a packet's protocol are 0 (e.g. ``seq`` of a UDP packet,
#: ``sport`` of an ICMP packet).
INT_COLUMNS = (
    "proto", "src_ip", "dst_ip", "dscp", "ecn", "identification",
    "ip_flags", "frag_offset", "ttl", "ip_opt_len",
    "sport", "dport", "seq", "ack", "tcp_flags", "window", "urgent",
    "tcp_opt_len", "icmp_type", "icmp_code", "icmp_rest", "payload_len",
)
#: every column: float64 ``timestamp`` seconds, the integer columns, and
#: the IPv4 and TCP option bytes as ``(n, 40)`` uint8, zero past the
#: ``ip_opt_len`` / ``tcp_opt_len`` bytes present
COLUMNS = ("timestamp",) + INT_COLUMNS + ("ip_options", "tcp_options")


class FlowBatch(Sequence):
    """Flows stored as packet columns; a lazy ``Sequence[Flow]``.

    ``columns`` maps every name in :data:`COLUMNS` to an array over all
    packets, flow-major; flow ``i`` owns packets
    ``offsets[i]:offsets[i + 1]``.  Every flow carries ``label``.
    ``matrices`` is the ``(n, P, 1088)`` ternary nprint tensor the batch
    was decoded from, when it was (see
    :func:`repro.nprint.decoder.decode_flow`), else None.
    """

    def __init__(self, columns: dict[str, np.ndarray], offsets,
                 label: str = "", matrices: np.ndarray | None = None):
        self.columns = columns
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.label = label
        self.matrices = matrices

    @property
    def n_packets(self) -> int:
        return int(self.offsets[-1] - self.offsets[0])

    @property
    def packet_counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            stop = max(start, stop)
            lo, hi = self.offsets[start], self.offsets[stop]
            return FlowBatch(
                {name: col[lo:hi] for name, col in self.columns.items()},
                self.offsets[start:stop + 1] - lo,
                self.label,
                None if self.matrices is None
                else self.matrices[start:stop],
            )
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("flow index out of range")
        return self._flow(i)

    def __iter__(self):
        for i in range(len(self)):
            yield self._flow(i)

    def _flow(self, i: int) -> Flow:
        return Flow(
            packets=_packets(self.columns, int(self.offsets[i]),
                             int(self.offsets[i + 1])),
            label=self.label,
        )


def _packets(cols: dict[str, np.ndarray], start: int,
             stop: int) -> list[Packet]:
    """Packet objects for rows ``start:stop`` of ``cols``."""
    c = {name: cols[name][start:stop].tolist() for name in INT_COLUMNS}
    stamps = cols["timestamp"][start:stop].tolist()
    ip_opts = cols["ip_options"][start:stop]
    tcp_opts = cols["tcp_options"][start:stop]
    packets = []
    for j in range(stop - start):
        proto = c["proto"][j]
        if proto == IPProto.TCP:
            transport = TCPHeader(
                src_port=c["sport"][j],
                dst_port=c["dport"][j],
                seq=c["seq"][j],
                ack=c["ack"][j],
                reserved=0,
                flags=c["tcp_flags"][j],
                window=c["window"][j],
                urgent_pointer=c["urgent"][j],
                options=tcp_opts[j, :c["tcp_opt_len"][j]].tobytes(),
            )
        elif proto == IPProto.UDP:
            transport = UDPHeader(src_port=c["sport"][j],
                                  dst_port=c["dport"][j])
        elif proto == IPProto.ICMP:
            transport = ICMPHeader(
                icmp_type=c["icmp_type"][j],
                code=c["icmp_code"][j],
                rest=c["icmp_rest"][j],
            )
        else:
            transport = None
        ip = IPv4Header(
            version=4,
            dscp=c["dscp"][j],
            ecn=c["ecn"][j],
            identification=c["identification"][j],
            flags=c["ip_flags"][j],
            fragment_offset=c["frag_offset"][j],
            ttl=c["ttl"][j],
            proto=proto,
            src_ip=c["src_ip"][j],
            dst_ip=c["dst_ip"][j],
            options=ip_opts[j, :c["ip_opt_len"][j]].tobytes(),
        )
        packets.append(Packet(
            ip=ip,
            transport=transport,
            payload=b"\x00" * c["payload_len"][j],
            timestamp=stamps[j],
        ))
    return packets
