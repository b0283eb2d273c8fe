"""Packet filter: ingress classification and reconfiguration safety (§3.1, §4.1).

The filter sits before the parser and

* discards packets without a VLAN tag (control packets such as BFD can
  instead be diverted to the control plane),
* recognizes reconfiguration packets by their UDP destination port
  (0xf1f2) so data packets can never reach the configuration path,
* holds the two software-visible registers used during reconfiguration:
  a 4-byte **reconfiguration packet counter** (increments when a
  reconfiguration packet passes through the daisy chain) and a 32-bit
  **bitmap** of modules currently being updated — data packets of a
  module whose bit is set are dropped so in-flight packets never meet a
  half-written configuration,
* tags packets round-robin with a packet-buffer number (0-3) and a
  parser number (0-1) for the §3.2 optimized datapath.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple

from ..errors import ConfigError
from ..net.ethernet import ETHERTYPE_VLAN
from ..net.packet import Packet
from ..net.udp_ import MENSHEN_RECONFIG_DPORT

#: Byte offsets inside an Ethernet+802.1Q+IPv4+UDP frame.
_ETHERTYPE_OFFSET = 12
_VLAN_TCI_OFFSET = 14
_IP_PROTO_OFFSET = 18 + 9
_UDP_DPORT_OFFSET = 18 + 20 + 2
#: Fewest bytes that hold the tag, and the UDP destination port.
_TAGGED_LEN = _VLAN_TCI_OFFSET + 2
_UDP_DPORT_END = _UDP_DPORT_OFFSET + 2
#: The two 16-bit constants the filter compares, as they sit on the wire.
_TPID_HI, _TPID_LO = ETHERTYPE_VLAN >> 8, ETHERTYPE_VLAN & 0xFF
_DPORT_HI, _DPORT_LO = (MENSHEN_RECONFIG_DPORT >> 8,
                        MENSHEN_RECONFIG_DPORT & 0xFF)
_IP_PROTO_UDP = 17

COUNTER_BITS = 32
BITMAP_BITS = 32
#: §3.2 optimized datapath: packet buffers and parsers tagged round-robin.
NUM_BUFFERS = 4
NUM_PARSERS = 2


def _sniff(buf) -> Tuple[Optional[int], bool]:
    """The one read of the header fields the filter judges: the 12-bit
    VID of an 802.1Q-tagged frame (``None`` for a frame the filter calls
    untagged: no 0x8100 at offset 12, or too short to hold the tag), and
    whether the frame is a reconfiguration packet (tagged, IPv4 protocol
    UDP, destination port 0xf1f2 — a simple combinational check).

    Indexes ``buf`` itself: one length comparison proves every offset
    below it, where the bounds-checked ``Packet.read_int`` re-proves
    (and copies) per field.
    """
    if (len(buf) < _TAGGED_LEN
            or buf[_ETHERTYPE_OFFSET] != _TPID_HI
            or buf[_ETHERTYPE_OFFSET + 1] != _TPID_LO):
        return None, False
    return ((buf[_VLAN_TCI_OFFSET] << 8 | buf[_VLAN_TCI_OFFSET + 1]) & 0xFFF,
            len(buf) >= _UDP_DPORT_END
            and buf[_IP_PROTO_OFFSET] == _IP_PROTO_UDP
            and buf[_UDP_DPORT_OFFSET] == _DPORT_HI
            and buf[_UDP_DPORT_OFFSET + 1] == _DPORT_LO)


def tagged_vid(packet: Packet) -> Optional[int]:
    """The 12-bit VID of an 802.1Q-tagged frame; ``None`` for a frame
    the filter calls untagged."""
    return _sniff(packet.buf)[0]


class PacketClass(Enum):
    """Filter verdicts."""

    DATA = "data"                  #: VLAN-tagged tenant packet
    RECONFIG = "reconfig"          #: daisy-chain configuration packet
    CONTROL = "control"            #: untagged (e.g. BFD) -> control plane
    DROP_UPDATING = "drop_updating"  #: module bit set in the bitmap


# The verdicts as module names, for the per-packet paths: reading an
# attribute of an enum class goes through ``EnumType.__getattr__``'s
# hook on Python 3.11, several times the cost of a global read.
DATA, RECONFIG, CONTROL, DROP_UPDATING = (
    PacketClass.DATA, PacketClass.RECONFIG, PacketClass.CONTROL,
    PacketClass.DROP_UPDATING)


class PacketFilter:
    """Classifies ingress packets and guards reconfiguration."""

    def __init__(self) -> None:
        self.reconfig_counter = 0     #: 4-byte wrap-around counter
        self.update_bitmap = 0        #: 32-bit module-under-update bitmap
        self._next_buffer = 0
        self._next_parser = 0
        self.data_packets = 0
        self.reconfig_packets = 0
        self.dropped_untagged = 0
        self.dropped_updating = 0

    # -- register file (AXI-Lite accessible, §4.1) --------------------------

    def read_counter(self) -> int:
        return self.reconfig_counter

    def write_bitmap(self, bitmap: int) -> None:
        if not 0 <= bitmap < (1 << BITMAP_BITS):
            raise ConfigError(f"bitmap {bitmap:#x} exceeds 32 bits")
        self.update_bitmap = bitmap

    def read_bitmap(self) -> int:
        return self.update_bitmap

    def set_module_updating(self, module_id: int) -> None:
        if not 0 <= module_id < BITMAP_BITS:
            raise ConfigError(f"module id {module_id} exceeds bitmap width")
        self.update_bitmap |= (1 << module_id)

    def clear_module_updating(self, module_id: int) -> None:
        if not 0 <= module_id < BITMAP_BITS:
            raise ConfigError(f"module id {module_id} exceeds bitmap width")
        self.update_bitmap &= ~(1 << module_id)

    def is_module_updating(self, module_id: int) -> bool:
        return bool(self.update_bitmap >> module_id & 1)

    def count_reconfig_packet(self) -> None:
        """Called by the daisy chain when a packet passes through."""
        self.reconfig_counter = (self.reconfig_counter + 1) % (1 << COUNTER_BITS)

    # -- classification ----------------------------------------------------------

    @staticmethod
    def is_reconfig_packet(packet: Packet) -> bool:
        """UDP destination port == 0xf1f2 on a tagged IPv4 frame."""
        return _sniff(packet.buf)[1]

    def look(self, packet: Packet) -> Tuple[PacketClass, int]:
        """Classify one ingress packet, updating filter statistics.

        Returns the verdict and the VID it was reached on: the tag's
        for ``DATA`` / ``DROP_UPDATING``, 0 where the verdict names no
        tenant (``CONTROL``, ``RECONFIG``). The header is read once.
        """
        vid, reconfig = _sniff(packet.buf)
        if vid is None:
            self.dropped_untagged += 1
            return CONTROL, 0
        if reconfig:
            self.reconfig_packets += 1
            return RECONFIG, 0
        if vid < BITMAP_BITS and self.update_bitmap >> vid & 1:
            self.dropped_updating += 1
            return DROP_UPDATING, vid
        self.data_packets += 1
        return DATA, vid

    def classify(self, packet: Packet) -> PacketClass:
        """The verdict of :meth:`look` alone."""
        return self.look(packet)[0]

    # -- §3.2 optimization tags ----------------------------------------------

    def assign_buffer(self) -> int:
        """Round-robin packet-buffer tag (one-hot encoded in metadata)."""
        tag = self._next_buffer
        self._next_buffer = (self._next_buffer + 1) % NUM_BUFFERS
        return tag

    def assign_parser(self) -> int:
        """Round-robin parser assignment (0 or 1)."""
        parser = self._next_parser
        self._next_parser = (self._next_parser + 1) % NUM_PARSERS
        return parser
