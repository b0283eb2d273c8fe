"""Table-driven programmable parser (§3.1, Fig. 3).

For each packet, the parser:

1. extracts the module ID from the VLAN VID at a fixed offset (this step
   is hardwired, not programmable),
2. looks up the module's 160-bit parser-table entry,
3. executes up to 10 parse actions, each copying ``container_size`` bytes
   at ``bytes_from_head`` into a PHV container,
4. fills in pipeline-generated metadata (packet length, source port,
   module ID).

The PHV starts zeroed for every packet — the paper's defense against
container contents leaking between modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ConfigError, PacketError
from ..net.packet import Packet
from .config_table import ConfigTable
from .encodings import (
    decode_parse_action,
    decode_parser_entry,
    encode_parse_action,
    encode_parser_entry,
)
from .params import DEFAULT_PARAMS, HardwareParams
from .phv import _CONTAINER_BYTES, PHV, ContainerRef, ContainerType

_META = ContainerType.META

#: Byte offset of the VLAN TCI inside an Ethernet+802.1Q frame.
VLAN_TCI_OFFSET = 14


@dataclass(frozen=True)
class ParseAction:
    """A decoded parse action: copy bytes from the packet into a container."""

    bytes_from_head: int
    container: ContainerRef
    valid: bool = True

    def encode(self) -> int:
        return encode_parse_action(
            bytes_from_head=self.bytes_from_head,
            container_type=int(self.container.ctype),
            container_index=self.container.index,
            valid=1 if self.valid else 0,
        )

    @classmethod
    def decode(cls, word: int) -> "ParseAction":
        fields = decode_parse_action(word)
        return cls(
            bytes_from_head=fields["bytes_from_head"],
            container=ContainerRef(ContainerType(fields["container_type"]),
                                   fields["container_index"]),
            valid=bool(fields["valid"]),
        )


def decode_parse_program(entry: int) -> Tuple[ParseAction, ...]:
    """Row decoder of the parser and deparser tables: the valid actions
    of a 160-bit entry, in slot order."""
    actions = [ParseAction.decode(w) for w in decode_parser_entry(entry)]
    return tuple(a for a in actions if a.valid)


def extract_module_id(packet: Packet) -> int:
    """Read the 12-bit VID (module ID) from the fixed VLAN TCI offset."""
    buf = packet.buf
    if len(buf) < VLAN_TCI_OFFSET + 2:
        raise PacketError("packet too short to carry a VLAN tag")
    return (buf[VLAN_TCI_OFFSET] << 8 | buf[VLAN_TCI_OFFSET + 1]) & 0xFFF


class ProgrammableParser:
    """Executes per-module parse programs stored in a parser table.

    The table holds 160-bit entries and decodes them with
    :func:`decode_parse_program` — a plain
    :class:`~repro.rmt.config_table.ConfigTable` for a single-module RMT
    baseline or a Menshen overlay table.
    """

    def __init__(self, table: ConfigTable,
                 params: HardwareParams = DEFAULT_PARAMS):
        self.table = table
        self.params = params

    def install_program(self, module_id: int,
                        actions: List[ParseAction]) -> int:
        """Encode and write a module's parse program; returns the entry."""
        if len(actions) > self.params.parse_actions_per_entry:
            raise ConfigError(
                f"module {module_id}: {len(actions)} parse actions exceed "
                f"the limit of {self.params.parse_actions_per_entry}")
        entry = encode_parser_entry([a.encode() for a in actions])
        self.table.write(module_id, entry)
        return entry

    def read_program(self, module_id: int) -> Tuple[ParseAction, ...]:
        """A module's installed parse program (valid actions only)."""
        return self.table.read_decoded(module_id)

    def parse(self, packet: Packet, module_id: int) -> PHV:
        """Run the module's parse program over the packet; returns a PHV.

        Only the first ``parse_window_bytes`` (128) of the packet are
        addressable, matching the prototype. Parse actions that would
        read past the end of the packet fault with
        :class:`~repro.errors.PacketError` — a module cannot read beyond
        its own packet.

        ``end <= window <= len(packet)`` already bounds every copy, so
        the bytes are sliced straight out of ``packet.buf`` into
        ``phv.data``: exactly the container's width, never wider.
        """
        phv = PHV()  # zeroed per packet
        buf, data = packet.buf, phv.data
        window = min(len(buf), self.params.parse_window_bytes)
        for action in self.read_program(module_id):
            container = action.container
            ctype = container.ctype
            if ctype is _META:
                raise ConfigError("parse actions cannot target metadata")
            start = action.bytes_from_head
            end = start + _CONTAINER_BYTES[ctype]
            if end > window:
                raise PacketError(
                    f"parse action reads [{start}:{end}) "
                    f"past the {window}-byte parse window")
            data[container.flat_index] = int.from_bytes(buf[start:end], "big")

        # Pipeline-generated metadata, written as bytes (src_port at 4-5,
        # pkt_len at 6-7, module_id at 18-19). The setters run only to
        # raise their FieldRangeError on a value a 16-bit field cannot
        # hold; the clamped pkt_len always fits.
        meta = phv.metadata
        pkt_len = min(len(buf), 0xFFFF)
        src_port = packet.ingress_port
        if not (0 <= src_port <= 0xFFFF and 0 <= module_id <= 0xFFFF):
            meta.src_port = src_port
            meta.module_id = module_id
        mbuf = meta.buf
        mbuf[4] = src_port >> 8
        mbuf[5] = src_port & 0xFF
        mbuf[6] = pkt_len >> 8
        mbuf[7] = pkt_len & 0xFF
        mbuf[18] = module_id >> 8
        mbuf[19] = module_id & 0xFF
        return phv
