"""Source routing: route packets based on parsed header info.

Packets carry a routing header ``tag | port``; the module matches the
tag and forwards to the port *carried in the packet* — the egress comes
from a PHV container, not from action data.
"""

from __future__ import annotations

from typing import Iterable

from ..net.packet import Packet
from ..rmt.entry_types import ActionCall, Match, TableEntry
from .base import (
    COMMON_HEADER_DECLS,
    EntryList,
    apply_entries,
    common_packet,
    parser_chain,
)

NAME = "source_routing"

P4_SOURCE = COMMON_HEADER_DECLS + """
header srcroute_t {
    bit<16> tag;
    bit<16> port;
}
struct headers_t {
    ethernet_t ethernet; vlan_t vlan; ipv4_t ipv4; udp_t udp;
    srcroute_t srcroute;
}
""" + parser_chain("""
    state parse_srcroute { packet.extract(hdr.srcroute); transition accept; }
""", first_module_state="parse_srcroute", parser_name="SrParser") + """
control SrIngress(inout headers_t hdr) {
    action route_from_header() {
        standard_metadata.egress_spec = hdr.srcroute.port;
    }
    action invalid_tag() { mark_to_drop(); }
    table route {
        key = { hdr.srcroute.tag: exact; }
        actions = { route_from_header; invalid_tag; }
        size = 4;
    }
    apply { route.apply(); }
}
"""

#: Tag marking a valid source-routed packet.
VALID_TAG = 0x5A5A


def entries(valid_tags: Iterable[int] = (VALID_TAG,)) -> EntryList:
    """Accept rules for the given routing tags."""
    return [("route", TableEntry(Match({"hdr.srcroute.tag": tag}),
                                 ActionCall("route_from_header")))
            for tag in valid_tags]


def install(tenant, valid_tags: Iterable[int] = (VALID_TAG,)) -> None:
    """Install valid tags through a tenant handle."""
    apply_entries(tenant, entries(valid_tags))


def make_packet(vid: int, port: int, tag: int = VALID_TAG,
                pad_to: int = 0) -> Packet:
    payload = tag.to_bytes(2, "big") + port.to_bytes(2, "big")
    return common_packet(vid, payload, pad_to=pad_to)
