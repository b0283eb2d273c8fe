"""NetChain (simplified): an in-network sequencer (NSDI'18).

Coordination packets carry ``op | seq | value``. The sequencer table
matches the opcode and assigns the next sequence number from stateful
memory with ``loadd`` — the core of NetChain's sub-RTT ordering (chain
replication and failure handling are out of scope, as in the paper's
evaluation version).
"""

from __future__ import annotations

from ..net.packet import Packet
from ..rmt.entry_types import ActionCall, Match, TableEntry
from .base import (
    COMMON_HEADER_DECLS,
    EntryList,
    apply_entries,
    common_packet,
    parser_chain,
    read_module_field,
)

NAME = "netchain"

OP_SEQ = 1

P4_SOURCE = COMMON_HEADER_DECLS + """
header chain_t {
    bit<16> op;
    bit<32> seq;
    bit<32> value;
}
struct headers_t {
    ethernet_t ethernet; vlan_t vlan; ipv4_t ipv4; udp_t udp; chain_t chain;
}
""" + parser_chain("""
    state parse_chain { packet.extract(hdr.chain); transition accept; }
""", first_module_state="parse_chain", parser_name="ChainParser") + """
control ChainIngress(inout headers_t hdr) {
    register<bit<32>>(1) sequencer;

    action assign_seq(bit<16> port) {
        sequencer.loadd(hdr.chain.seq, 0);
        standard_metadata.egress_spec = port;
    }
    table seq_table {
        key = { hdr.chain.op: exact; }
        actions = { assign_seq; }
        size = 2;
    }
    apply { seq_table.apply(); }
}
"""


def entries(port: int = 1) -> EntryList:
    """The sequencer rule."""
    return [("seq_table", TableEntry(Match({"hdr.chain.op": OP_SEQ}),
                                     ActionCall("assign_seq",
                                                {"port": port})))]


def install(tenant, port: int = 1) -> None:
    """Install the sequencer rule through a tenant handle."""
    apply_entries(tenant, entries(port))


def make_packet(vid: int, pad_to: int = 0) -> Packet:
    payload = (OP_SEQ.to_bytes(2, "big") + (0).to_bytes(4, "big")
               + (0).to_bytes(4, "big"))
    return common_packet(vid, payload, pad_to=pad_to)


def read_seq(packet: Packet) -> int:
    return read_module_field(packet, 2, 4)
