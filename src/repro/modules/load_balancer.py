"""Load balancer: steer traffic based on 4-tuple header info.

Matches the flow identity (source IP, source port) and rewrites the UDP
destination port + egress port to the selected backend — the
tutorial-style L4 steering reduced to the prototype's rewrite widths.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..net import Ipv4Address
from ..net.packet import Packet
from ..rmt.entry_types import ActionCall, Match, TableEntry
from .base import (
    COMMON_HEADER_DECLS,
    EntryList,
    apply_entries,
    common_packet,
    parser_chain,
)

NAME = "load_balancer"

P4_SOURCE = COMMON_HEADER_DECLS + """
struct headers_t {
    ethernet_t ethernet; vlan_t vlan; ipv4_t ipv4; udp_t udp;
}
""" + parser_chain(parser_name="LbParser") + """
control LbIngress(inout headers_t hdr) {
    action to_backend(bit<16> port, bit<16> dport) {
        standard_metadata.egress_spec = port;
        hdr.udp.dstPort = dport;
    }
    action no_backend() { mark_to_drop(); }
    table flow_table {
        key = { hdr.ipv4.srcAddr: exact; hdr.udp.srcPort: exact; }
        actions = { to_backend; no_backend; }
        size = 4;
    }
    apply { flow_table.apply(); }
}
"""


def entries(flows: Iterable[Tuple[str, int, int, int]] = ()) -> EntryList:
    """Flow steering rules: (src ip, sport, backend port, backend dport)."""
    return [("flow_table", TableEntry(
        Match({"hdr.ipv4.srcAddr": int(Ipv4Address(src)),
               "hdr.udp.srcPort": sport}),
        ActionCall("to_backend", {"port": port, "dport": dport})))
        for src, sport, port, dport in flows]


def install(tenant, flows: Iterable[Tuple[str, int, int, int]] = ()) -> None:
    """Install flow steering through a tenant handle."""
    apply_entries(tenant, entries(flows))


def make_packet(vid: int, src: str, sport: int, pad_to: int = 0) -> Packet:
    return common_packet(vid, b"\x00" * 8, src=src, sport=sport,
                         pad_to=pad_to)


def read_dport(packet: Packet) -> int:
    return packet.read_int(40, 2)
