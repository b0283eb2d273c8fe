"""Shared P4 fragments and traffic helpers for the evaluated modules.

Every module's source starts from the same common-header declarations
(Ethernet + 802.1Q + IPv4 + UDP = the 46-byte common header of Fig. 7)
and a parser chain through them. The IPv4 destination address is split
into two 16-bit halves (``dstHi``/``dstLo``) — the ABI shared with the
system-level module so vIP rewrites and user matches use the same
containers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..net import PacketBuilder
from ..net.packet import Packet
from ..rmt.entry_types import TableEntry

#: Typed rule set: ``(table name, entry)`` pairs in priority order.
EntryList = List[Tuple[str, TableEntry]]

#: Byte offset of module-specific headers (after the common header).
MODULE_HEADER_OFFSET = 46

COMMON_HEADER_DECLS = """
header ethernet_t { bit<48> dstAddr; bit<48> srcAddr; bit<16> etherType; }
header vlan_t { bit<16> tci; bit<16> etherType; }
header ipv4_t {
    bit<16> ver_ihl_tos;
    bit<16> totalLen;
    bit<16> identification;
    bit<16> flags_frag;
    bit<8>  ttl;
    bit<8>  protocol;
    bit<16> checksum;
    bit<32> srcAddr;
    bit<16> dstHi;
    bit<16> dstLo;
}
header udp_t { bit<16> srcPort; bit<16> dstPort; bit<16> length; bit<16> checksum; }
"""


def parser_chain(module_states: str = "", first_module_state: str = "accept",
                 parser_name: str = "ModParser") -> str:
    """A parser walking the common headers, then module states."""
    return f"""
parser {parser_name}(packet_in packet, out headers_t hdr) {{
    state start {{
        packet.extract(hdr.ethernet);
        packet.extract(hdr.vlan);
        packet.extract(hdr.ipv4);
        packet.extract(hdr.udp);
        transition {first_module_state};
    }}
{module_states}
}}
"""


def common_packet(vid: int, payload: bytes, dst: str = "10.0.0.2",
                  src: str = "10.0.0.1", sport: int = 10000,
                  dport: int = 20000, pad_to: int = 0,
                  ingress_port: int = 0) -> Packet:
    """A data packet with the 46-byte common header + module payload."""
    return (PacketBuilder()
            .ethernet(src="02:00:00:00:00:01", dst="02:00:00:00:00:02")
            .vlan(vid=vid)
            .ipv4(src=src, dst=dst)
            .udp(sport=sport, dport=dport)
            .payload(payload)
            .build(pad_to=pad_to, ingress_port=ingress_port))


def read_module_field(packet: Packet, offset: int, length: int) -> int:
    """Read a module-header field at ``MODULE_HEADER_OFFSET + offset``."""
    return packet.read_int(MODULE_HEADER_OFFSET + offset, length)


def ip_halves(ip: str) -> Dict[str, int]:
    """Split a dotted IPv4 address into the shared dstHi/dstLo values."""
    from ..net import Ipv4Address
    value = int(Ipv4Address(ip))
    return {"hi": value >> 16, "lo": value & 0xFFFF}


def apply_entries(tenant, entries: Iterable[Tuple[str, TableEntry]]) -> None:
    """Install typed ``(table, entry)`` pairs through a tenant handle."""
    for table, entry in entries:
        tenant.table(table).insert(entry)
