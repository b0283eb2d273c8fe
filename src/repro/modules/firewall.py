"""Firewall: stateless filter that blocks certain traffic.

Matches (source IP, UDP destination port) pairs: blocked pairs are
dropped, explicitly-allowed pairs are forwarded to a configured port.
Unmatched traffic keeps the pipeline default (egress 0).
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..net import Ipv4Address
from ..net.packet import Packet
from ..rmt.entry_types import ActionCall, Match, TableEntry, Ternary
from .base import (
    COMMON_HEADER_DECLS,
    EntryList,
    apply_entries,
    common_packet,
    parser_chain,
)

NAME = "firewall"

P4_SOURCE = COMMON_HEADER_DECLS + """
struct headers_t {
    ethernet_t ethernet; vlan_t vlan; ipv4_t ipv4; udp_t udp;
}
""" + parser_chain(parser_name="FirewallParser") + """
control FirewallIngress(inout headers_t hdr) {
    action block() { mark_to_drop(); }
    action allow(bit<16> port) { standard_metadata.egress_spec = port; }
    table acl {
        key = { hdr.ipv4.srcAddr: exact; hdr.udp.dstPort: exact; }
        actions = { block; allow; }
        size = 4;
    }
    apply { acl.apply(); }
}
"""


#: Appendix-B variant: ternary (prefix) matching on the source address.
#: Requires a pipeline constructed with ``match_mode="ternary"``.
P4_SOURCE_TERNARY = P4_SOURCE.replace(
    "hdr.ipv4.srcAddr: exact; hdr.udp.dstPort: exact;",
    "hdr.ipv4.srcAddr: ternary; hdr.udp.dstPort: ternary;")


def prefix_mask(prefix_len: int) -> int:
    """A /prefix_len IPv4 mask as a 32-bit int."""
    if not 0 <= prefix_len <= 32:
        raise ValueError(f"bad prefix length {prefix_len}")
    return ((1 << prefix_len) - 1) << (32 - prefix_len) if prefix_len else 0


def entries(blocked: Iterable[Tuple[str, int]] = (),
            allowed: Iterable[Tuple[str, int, int]] = ()) -> EntryList:
    """Exact ACL rules: block (src, dport), allow (src, dport, out)."""
    rules: EntryList = []
    for src, dport in blocked:
        rules.append(("acl", TableEntry(
            Match({"hdr.ipv4.srcAddr": int(Ipv4Address(src)),
                   "hdr.udp.dstPort": dport}),
            ActionCall("block"))))
    for src, dport, port in allowed:
        rules.append(("acl", TableEntry(
            Match({"hdr.ipv4.srcAddr": int(Ipv4Address(src)),
                   "hdr.udp.dstPort": dport}),
            ActionCall("allow", {"port": port}))))
    return rules


def prefix_entries(blocked_prefixes: Iterable[Tuple[str, int]] = (),
                   default_port: int = 1) -> EntryList:
    """Ternary ACL rules: block (subnet, prefix_len) pairs, allow the rest.

    Priority is positional (earlier = higher priority): the specific
    block rules first, then a match-all allow.
    """
    rules: EntryList = []
    for subnet, plen in blocked_prefixes:
        rules.append(("acl", TableEntry(
            Match({"hdr.ipv4.srcAddr": Ternary(int(Ipv4Address(subnet)),
                                               prefix_mask(plen)),
                   "hdr.udp.dstPort": Ternary(0, 0)}),
            ActionCall("block"))))
    rules.append(("acl", TableEntry(
        Match({"hdr.ipv4.srcAddr": Ternary(0, 0),
               "hdr.udp.dstPort": Ternary(0, 0)}),
        ActionCall("allow", {"port": default_port}))))
    return rules


def install(tenant, blocked: Iterable[Tuple[str, int]] = (),
            allowed: Iterable[Tuple[str, int, int]] = ()) -> None:
    """Install exact-match ACL rules through a tenant handle."""
    apply_entries(tenant, entries(blocked, allowed))


def install_prefix(tenant, blocked_prefixes: Iterable[Tuple[str, int]] = (),
                   default_port: int = 1) -> None:
    """Install the ternary (Appendix B) ACL through a tenant handle."""
    apply_entries(tenant, prefix_entries(blocked_prefixes, default_port))


def make_packet(vid: int, src: str, dport: int, pad_to: int = 0) -> Packet:
    return common_packet(vid, b"\x00" * 8, src=src, dport=dport,
                         pad_to=pad_to)
