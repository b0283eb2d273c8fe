"""Deparser: writes modified PHV containers back into the packet (§3.1).

The deparser performs the inverse of the parser: for each valid action in
the module's deparser-table entry (same 160-bit format as the parser
table), it overwrites ``container_size`` bytes at ``bytes_from_head`` in
the buffered packet with the container's current value, then releases the
merged packet. Fields never parsed into the PHV are left untouched —
this is why the prototype gets away with only 25 containers (§4.1).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import ConfigError, PacketError
from ..net.packet import Packet
from .config_table import ConfigTable
from .encodings import encode_parser_entry
from .params import DEFAULT_PARAMS, HardwareParams
from .parser import ParseAction
from .phv import _CONTAINER_BYTES, PHV, ContainerType, Metadata

_META = ContainerType.META


class Deparser:
    """Merges a processed PHV back into its buffered packet."""

    def __init__(self, table: ConfigTable,
                 params: HardwareParams = DEFAULT_PARAMS):
        self.table = table
        self.params = params

    def install_program(self, module_id: int,
                        actions: List[ParseAction]) -> int:
        """Write a module's deparse program (parser-entry format)."""
        if len(actions) > self.params.parse_actions_per_entry:
            raise ConfigError(
                f"module {module_id}: {len(actions)} deparse actions exceed "
                f"the limit of {self.params.parse_actions_per_entry}")
        entry = encode_parser_entry([a.encode() for a in actions])
        self.table.write(module_id, entry)
        return entry

    def read_program(self, module_id: int) -> Tuple[ParseAction, ...]:
        """A module's installed deparse program (valid actions only)."""
        return self.table.read_decoded(module_id)

    def deparse(self, phv: PHV, packet: Packet,
                module_id: int) -> Optional[Packet]:
        """Write containers back into ``packet``; returns the merged packet.

        Returns ``None`` when the PHV's discard flag is set — the packet
        is dropped instead of transmitted. The input packet is mutated in
        place (it is the packet buffer's copy). Like the parser, it
        writes ``packet.buf`` directly once ``end <= window`` holds.
        """
        if phv.metadata.buf[0] & Metadata.FLAG_DISCARD:
            return None
        buf, data = packet.buf, phv.data
        window = min(len(buf), self.params.parse_window_bytes)
        for action in self.read_program(module_id):
            container = action.container
            ctype = container.ctype
            if ctype is _META:
                raise ConfigError("deparse actions cannot target metadata")
            start = action.bytes_from_head
            size = _CONTAINER_BYTES[ctype]
            end = start + size
            if end > window:
                raise PacketError(
                    f"deparse action writes [{start}:{end}) "
                    f"past the {window}-byte window")
            buf[start:end] = data[container.flat_index].to_bytes(size, "big")
        return packet
