"""QoS: set the IP DSCP based on traffic type.

Matches the UDP destination port (the traffic class selector) and
rewrites the 16-bit ``ver_ihl_tos`` window of the IPv4 header — the
container-granularity way to write the TOS byte (the version/IHL half
is the constant 0x45 for all generated traffic).
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..net.packet import Packet
from ..rmt.entry_types import ActionCall, Match, TableEntry
from .base import (
    COMMON_HEADER_DECLS,
    EntryList,
    apply_entries,
    common_packet,
    parser_chain,
)

NAME = "qos"

#: Standard DSCP values used in entries.
DSCP_EF = 46       # expedited forwarding (voice)
DSCP_AF41 = 34     # video
DSCP_BEST_EFFORT = 0


def tos_word(dscp: int, ecn: int = 0) -> int:
    """The 16-bit ver_ihl_tos value for IHL=5 IPv4 with the given DSCP."""
    return (0x45 << 8) | (dscp << 2) | ecn


P4_SOURCE = COMMON_HEADER_DECLS + """
struct headers_t {
    ethernet_t ethernet; vlan_t vlan; ipv4_t ipv4; udp_t udp;
}
""" + parser_chain(parser_name="QosParser") + """
control QosIngress(inout headers_t hdr) {
    action set_tos(bit<16> tos) { hdr.ipv4.ver_ihl_tos = tos; }
    table classify {
        key = { hdr.udp.dstPort: exact; }
        actions = { set_tos; }
        size = 4;
    }
    apply { classify.apply(); }
}
"""


DEFAULT_CLASSES = ((5060, DSCP_EF), (8801, DSCP_AF41))


def entries(classes: Iterable[Tuple[int, int]] = DEFAULT_CLASSES
            ) -> EntryList:
    """(udp dport -> dscp) classification rules."""
    return [("classify", TableEntry(
        Match({"hdr.udp.dstPort": dport}),
        ActionCall("set_tos", {"tos": tos_word(dscp)})))
        for dport, dscp in classes]


def install(tenant,
            classes: Iterable[Tuple[int, int]] = DEFAULT_CLASSES) -> None:
    """Install traffic classes through a tenant handle."""
    apply_entries(tenant, entries(classes))


def make_packet(vid: int, dport: int, pad_to: int = 0) -> Packet:
    return common_packet(vid, b"\x00" * 8, dport=dport, pad_to=pad_to)


def read_dscp(packet: Packet) -> int:
    return packet.read_int(19, 1) >> 2
