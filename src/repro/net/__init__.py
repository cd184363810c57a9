"""Byte-accurate packet substrate: headers, packets, flows, pcap I/O, replay.

This package is the lowest layer of the reproduction.  Everything above it
(the nprint bit representation, the traffic workload generator, the diffusion
pipeline's pcap back-transform) builds and parses packets through these
classes, so header serialisation here is wire-accurate: checksums, network
byte order, option padding, and fragmentation fields all follow the RFCs.
"""

from repro.net.checksum import internet_checksum
from repro.net.headers import (
    ICMP_HEADER_BYTES,
    IPV4_MAX_HEADER_BYTES,
    IPV4_MIN_HEADER_BYTES,
    TCP_MAX_HEADER_BYTES,
    TCP_MIN_HEADER_BYTES,
    UDP_HEADER_BYTES,
    ICMPHeader,
    IPProto,
    IPv4Header,
    TCPFlags,
    TCPHeader,
    UDPHeader,
)
from repro.net.ipaddr import in_subnet, ip_to_str, str_to_ip
from repro.net.packet import Packet, build_packet, parse_packet
from repro.net.flow import Flow, FlowKey, assemble_flows
from repro.net.flowbatch import FlowBatch
from repro.net.pcap import PcapReader, PcapWriter, read_pcap, write_pcap
from repro.net.pcapng import (
    PcapngReader,
    PcapngWriter,
    read_capture,
    read_pcapng,
    write_pcapng,
)
from repro.net.tcpoptions import (
    TCPOption,
    TCPOptionKind,
    build_mss,
    build_timestamps,
    build_window_scale,
    find_option,
    parse_tcp_options,
)
from repro.net.replay import (
    NetworkFunction,
    ProtocolConsistencyMonitor,
    ReplayEngine,
    ReplayReport,
    StatefulFirewall,
    TCPStateTracker,
)

__all__ = [
    "internet_checksum",
    "ip_to_str",
    "str_to_ip",
    "in_subnet",
    "IPProto",
    "TCPFlags",
    "IPv4Header",
    "TCPHeader",
    "UDPHeader",
    "ICMPHeader",
    "IPV4_MIN_HEADER_BYTES",
    "IPV4_MAX_HEADER_BYTES",
    "TCP_MIN_HEADER_BYTES",
    "TCP_MAX_HEADER_BYTES",
    "UDP_HEADER_BYTES",
    "ICMP_HEADER_BYTES",
    "Packet",
    "build_packet",
    "parse_packet",
    "Flow",
    "FlowKey",
    "assemble_flows",
    "FlowBatch",
    "PcapReader",
    "PcapWriter",
    "read_pcap",
    "write_pcap",
    "PcapngReader",
    "PcapngWriter",
    "read_pcapng",
    "write_pcapng",
    "read_capture",
    "TCPOption",
    "TCPOptionKind",
    "parse_tcp_options",
    "find_option",
    "build_mss",
    "build_window_scale",
    "build_timestamps",
    "ReplayEngine",
    "ReplayReport",
    "NetworkFunction",
    "StatefulFirewall",
    "TCPStateTracker",
    "ProtocolConsistencyMonitor",
]
