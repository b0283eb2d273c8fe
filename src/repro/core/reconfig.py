"""Reconfiguration packets (Fig. 7): the only way to write pipeline config.

A reconfiguration packet is a normal UDP packet (destination port
0xf1f2) whose payload addresses one configuration row:

====================  ======  =============================================
field                 size    meaning
====================  ======  =============================================
common header         46 B    Ethernet + VLAN + IPv4 + UDP
resource ID           12 b    which resource in which stage (see below)
reserved              4 b     —
index                 1 B     row within the resource's table
padding               15 B    —
payload               varies  the entry bytes (width per resource)
====================  ======  =============================================

The 12-bit resource ID encodes ``type(4b) | stage(8b)``; stage is 0 for
the stage-less parser/deparser tables.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from ..errors import FieldRangeError, ReconfigurationError
from ..net.builder import COMMON_HEADER_LEN, PacketBuilder
from ..net.checksum import internet_checksum, pseudo_header_ipv4
from ..net.ipv4 import IPV4_HEADER_LEN, PROTO_UDP
from ..net.packet import Packet
from ..net.udp_ import MENSHEN_RECONFIG_DPORT, UDP_HEADER_LEN
from ..net.vlan import MAX_VID, VLAN_TAG_LEN
from ..rmt.params import DEFAULT_PARAMS, HardwareParams

#: Offset of the reconfiguration payload within the packet (after the
#: 46-byte common header).
_PAYLOAD_OFFSET = COMMON_HEADER_LEN
_PADDING = bytes(15)
_HEADER_LEN = 2 + 1 + len(_PADDING)  # resource-id word + index + padding

# Where the fields that vary per packet sit in the common header.
_IP_OFFSET = _PAYLOAD_OFFSET - UDP_HEADER_LEN - IPV4_HEADER_LEN
_VLAN_TCI = _IP_OFFSET - VLAN_TAG_LEN
_IP_TOTAL_LENGTH = _IP_OFFSET + 2
_IP_CHECKSUM = _IP_OFFSET + 10
_UDP_OFFSET = _PAYLOAD_OFFSET - UDP_HEADER_LEN
_UDP_DPORT = _UDP_OFFSET + 2
_UDP_LENGTH = _UDP_OFFSET + 4
_UDP_CHECKSUM = _UDP_OFFSET + 6
#: One big-endian 16-bit header word.
_U16 = struct.Struct(">H")


def _common_header() -> bytes:
    """Fig. 7's common header as every reconfiguration packet carries
    it — fixed addresses and ports, VID 0, lengths for an empty payload
    — with both checksum fields zeroed, ready to be summed over."""
    header = (PacketBuilder()
              .ethernet(src="02:00:00:00:00:10", dst="02:00:00:00:00:11")
              .vlan(vid=0)
              .ipv4(src="10.255.0.1", dst="10.255.0.2")
              .udp(sport=0xF1F1, dport=MENSHEN_RECONFIG_DPORT)
              .build())
    header.write_int(_IP_CHECKSUM, 2, 0)
    header.write_int(_UDP_CHECKSUM, 2, 0)
    return header.tobytes()


#: Built once: :func:`build_reconfig_packet` copies it and patches the
#: five fields that vary (VLAN VID, IPv4 total length and header
#: checksum, UDP length and checksum).
_COMMON_HEADER = _common_header()
#: The UDP pseudo-header's addresses, as the template carries them.
_IP_SRC = int.from_bytes(_COMMON_HEADER[_IP_OFFSET + 12:_IP_OFFSET + 16],
                         "big")
_IP_DST = int.from_bytes(_COMMON_HEADER[_IP_OFFSET + 16:_IP_OFFSET + 20],
                         "big")


class ResourceType(IntEnum):
    """4-bit resource-type codes for the reconfiguration resource ID."""

    PARSER_TABLE = 1
    DEPARSER_TABLE = 2
    KEY_EXTRACTOR = 3
    KEY_MASK = 4
    CAM = 5
    VLIW = 6
    SEGMENT = 7
    CAM_INVALIDATE = 8   #: clears a CAM row (empty payload)
    STATEFUL_WORD = 9    #: initializes one stateful-memory word
    TCAM = 10            #: ternary entry: key | mask | module ID (App. B)
    DEFAULT_VLIW = 11    #: per-module miss action (extension)


def entry_payload_bytes(rtype: ResourceType,
                        params: HardwareParams = DEFAULT_PARAMS) -> int:
    """Payload width in bytes for each resource type."""
    return params.reconfig_entry_bytes[rtype]


@dataclass(frozen=True)
class ConfigWrite:
    """One configuration write: a row value bound to a resource + index.

    The typed form of what used to travel as ``(resource, index, entry)``
    tuples between the controller and the interface; iterable so that
    existing tuple-unpacking call sites keep working.
    """

    resource: "ResourceId"
    index: int
    entry: int

    def __iter__(self):
        return iter((self.resource, self.index, self.entry))


@dataclass(frozen=True)
class ResourceId:
    """Decoded 12-bit resource ID: resource type + stage number."""

    rtype: ResourceType
    stage: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.stage < 256:
            raise ReconfigurationError(f"stage {self.stage} exceeds 8 bits")

    def encode(self) -> int:
        return (int(self.rtype) << 8) | self.stage

    @classmethod
    def decode(cls, value: int) -> "ResourceId":
        if not 0 <= value < (1 << 12):
            raise ReconfigurationError(
                f"resource id {value:#x} exceeds 12 bits")
        try:
            rtype = ResourceType(value >> 8)
        except ValueError as exc:
            raise ReconfigurationError(
                f"unknown resource type {value >> 8}") from exc
        return cls(rtype=rtype, stage=value & 0xFF)


@dataclass(frozen=True)
class ReconfigPayload:
    """Decoded reconfiguration request."""

    resource: ResourceId
    index: int
    entry: int  #: the configuration word (width per resource type)


def build_reconfig_packet(resource: ResourceId, index: int, entry: int,
                          params: HardwareParams = DEFAULT_PARAMS,
                          vid: int = 0) -> Packet:
    """Serialize a configuration write into a reconfiguration packet."""
    if not 0 <= index < 256:
        raise ReconfigurationError(f"index {index} exceeds 1 byte")
    nbytes = entry_payload_bytes(resource.rtype, params)
    if entry < 0 or (nbytes and entry >= (1 << (8 * nbytes))):
        raise ReconfigurationError(
            f"entry {entry:#x} does not fit {nbytes} payload bytes for "
            f"{resource.rtype.name}")
    if nbytes == 0 and entry:
        raise ReconfigurationError(
            f"{resource.rtype.name} carries no payload, got entry {entry:#x}")
    if not 0 <= vid <= MAX_VID:
        raise FieldRangeError(f"VID out of range: {vid}")

    body = ((resource.encode() << 4).to_bytes(2, "big")  # 12b id | 4b rsvd
            + bytes((index,)) + _PADDING + entry.to_bytes(nbytes, "big"))
    packet = Packet(_COMMON_HEADER + body)
    # The header template fixes every offset below, and the checks above
    # bound every value: 16-bit words patched straight into the buffer.
    buf = packet.buf
    udp_length = UDP_HEADER_LEN + len(body)
    _U16.pack_into(buf, _VLAN_TCI, vid)
    _U16.pack_into(buf, _IP_TOTAL_LENGTH, IPV4_HEADER_LEN + udp_length)
    _U16.pack_into(buf, _UDP_LENGTH, udp_length)
    # RFC 768: a computed UDP checksum of 0 is transmitted as 0xFFFF.
    _U16.pack_into(buf, _UDP_CHECKSUM, internet_checksum(
        pseudo_header_ipv4(_IP_SRC, _IP_DST, PROTO_UDP, udp_length)
        + buf[_UDP_OFFSET:]) or 0xFFFF)
    _U16.pack_into(buf, _IP_CHECKSUM, internet_checksum(
        buf[_IP_OFFSET:_IP_OFFSET + IPV4_HEADER_LEN]))
    return packet


def parse_reconfig_packet(packet: Packet,
                          params: HardwareParams = DEFAULT_PARAMS
                          ) -> ReconfigPayload:
    """Decode a reconfiguration packet back into a config write."""
    buf = packet.buf
    # This length check bounds every header read below; the truncation
    # check bounds the entry's.
    if len(buf) < _PAYLOAD_OFFSET + _HEADER_LEN:
        raise ReconfigurationError("reconfiguration packet too short")
    dport = buf[_UDP_DPORT] << 8 | buf[_UDP_DPORT + 1]
    if dport != MENSHEN_RECONFIG_DPORT:
        raise ReconfigurationError(
            f"not a reconfiguration packet (dport {dport:#x})")
    word = buf[_PAYLOAD_OFFSET] << 8 | buf[_PAYLOAD_OFFSET + 1]
    resource = ResourceId.decode(word >> 4)
    index = buf[_PAYLOAD_OFFSET + 2]
    nbytes = entry_payload_bytes(resource.rtype, params)
    entry = 0
    if nbytes:
        start = _PAYLOAD_OFFSET + _HEADER_LEN
        if len(buf) < start + nbytes:
            raise ReconfigurationError(
                f"payload truncated: need {nbytes} entry bytes")
        entry = int.from_bytes(buf[start:start + nbytes], "big")
    return ReconfigPayload(resource=resource, index=index, entry=entry)
