"""Multicast: replicate based on destination IP address.

Matches the destination address (as the shared dstHi/dstLo halves) and
tags the packet with a multicast group; the traffic manager replicates
to every port in the group.
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
    ip_halves,
    parser_chain,
)

NAME = "multicast"

P4_SOURCE = COMMON_HEADER_DECLS + """
struct headers_t {
    ethernet_t ethernet; vlan_t vlan; ipv4_t ipv4; udp_t udp;
}
""" + parser_chain(parser_name="McParser") + """
control McIngress(inout headers_t hdr) {
    action to_group(bit<16> grp) { standard_metadata.mcast_grp = grp; }
    action unicast(bit<16> port) { standard_metadata.egress_spec = port; }
    table groups {
        key = { hdr.ipv4.dstHi: exact; hdr.ipv4.dstLo: exact; }
        actions = { to_group; unicast; }
        size = 4;
    }
    apply { groups.apply(); }
}
"""


def entries(groups: Iterable[Tuple[str, int]] = ()) -> EntryList:
    """(destination ip -> multicast group) rules."""
    rules: EntryList = []
    for dst, grp in groups:
        halves = ip_halves(dst)
        rules.append(("groups", TableEntry(
            Match({"hdr.ipv4.dstHi": halves["hi"],
                   "hdr.ipv4.dstLo": halves["lo"]}),
            ActionCall("to_group", {"grp": grp}))))
    return rules


def install(tenant, groups: Iterable[Tuple[str, int]] = ()) -> None:
    """Install multicast groups through a tenant handle."""
    apply_entries(tenant, entries(groups))


def make_packet(vid: int, dst: str, pad_to: int = 0) -> Packet:
    return common_packet(vid, b"\x00" * 8, dst=dst, pad_to=pad_to)
