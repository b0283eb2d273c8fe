"""CALC: return a value computed from a parsed opcode and operands.

The P4-tutorial calculator: packets carry ``op | operand_a | operand_b |
result``; the module matches the opcode and writes ``result``. ADD and
SUB run on the ALUs; the table's egress action parameter bounces the
answer to a configured port.
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

NAME = "calc"

OP_ADD = 1
OP_SUB = 2
OP_ECHO = 3

P4_SOURCE = COMMON_HEADER_DECLS + """
header calc_t {
    bit<16> op;
    bit<32> operand_a;
    bit<32> operand_b;
    bit<32> result;
}
struct headers_t {
    ethernet_t ethernet; vlan_t vlan; ipv4_t ipv4; udp_t udp; calc_t calc;
}
""" + parser_chain("""
    state parse_calc { packet.extract(hdr.calc); transition accept; }
""", first_module_state="parse_calc", parser_name="CalcParser") + """
control CalcIngress(inout headers_t hdr) {
    action op_add(bit<16> port) {
        hdr.calc.result = hdr.calc.operand_a + hdr.calc.operand_b;
        standard_metadata.egress_spec = port;
    }
    action op_sub(bit<16> port) {
        hdr.calc.result = hdr.calc.operand_a - hdr.calc.operand_b;
        standard_metadata.egress_spec = port;
    }
    action op_echo() {
        hdr.calc.result = hdr.calc.operand_a;
    }
    table calc_table {
        key = { hdr.calc.op: exact; }
        actions = { op_add; op_sub; op_echo; }
        size = 4;
    }
    apply { calc_table.apply(); }
}
"""


def entries(port: int = 1) -> EntryList:
    """The standard opcode entries, as typed rules."""
    return [
        ("calc_table", TableEntry(Match({"hdr.calc.op": OP_ADD}),
                                  ActionCall("op_add", {"port": port}))),
        ("calc_table", TableEntry(Match({"hdr.calc.op": OP_SUB}),
                                  ActionCall("op_sub", {"port": port}))),
        ("calc_table", TableEntry(Match({"hdr.calc.op": OP_ECHO}),
                                  ActionCall("op_echo"))),
    ]


def install(tenant, port: int = 1) -> None:
    """Install the standard opcode entries through a tenant handle."""
    apply_entries(tenant, entries(port))


def make_packet(vid: int, op: int, a: int, b: int, pad_to: int = 0) -> Packet:
    payload = (op.to_bytes(2, "big") + a.to_bytes(4, "big")
               + b.to_bytes(4, "big") + (0).to_bytes(4, "big"))
    return common_packet(vid, payload, pad_to=pad_to)


def read_result(packet: Packet) -> int:
    """The 32-bit result field of an output packet."""
    return read_module_field(packet, 10, 4)


def reference_result(op: int, a: int, b: int) -> int:
    """Golden model of the module's computation."""
    if op == OP_ADD:
        return (a + b) % (1 << 32)
    if op == OP_SUB:
        return (a - b) % (1 << 32)
    if op == OP_ECHO:
        return a
    return 0  # unmatched opcodes leave result untouched (zero on input)
