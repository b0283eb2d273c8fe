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
from typing import NamedTuple, Optional, Tuple

from ..errors import FieldRangeError, ReconfigurationError
from ..net.builder import COMMON_HEADER_LEN, PacketBuilder
from ..net.checksum import pseudo_header_ipv4
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
#: The payload's resource-id word and index byte.
_BODY_HEAD = struct.Struct(">HB")

# Where the fields that vary per packet sit in the common header.
_IP_OFFSET = _PAYLOAD_OFFSET - UDP_HEADER_LEN - IPV4_HEADER_LEN
_VLAN_TCI = _IP_OFFSET - VLAN_TAG_LEN
_IP_TOTAL_LENGTH = _IP_OFFSET + 2
_IP_CHECKSUM = _IP_OFFSET + 10
_UDP_OFFSET = _PAYLOAD_OFFSET - UDP_HEADER_LEN
_UDP_DPORT = _UDP_OFFSET + 2
_UDP_LENGTH = _UDP_OFFSET + 4
_UDP_CHECKSUM = _UDP_OFFSET + 6


def _common_header() -> bytes:
    """Fig. 7's common header as every reconfiguration packet carries
    it — fixed addresses and ports, VID 0 — with the four words that
    depend on the payload (both lengths, both checksums) zeroed."""
    header = (PacketBuilder()
              .ethernet(src="02:00:00:00:00:10", dst="02:00:00:00:00:11")
              .vlan(vid=0)
              .ipv4(src="10.255.0.1", dst="10.255.0.2")
              .udp(sport=0xF1F1, dport=MENSHEN_RECONFIG_DPORT)
              .build())
    for offset in (_IP_TOTAL_LENGTH, _IP_CHECKSUM, _UDP_LENGTH,
                   _UDP_CHECKSUM):
        header.write_int(offset, 2, 0)
    return header.tobytes()


_COMMON_HEADER = _common_header()
#: :func:`build_reconfig_packet` packs the header in one call: the
#: template's constant runs around the five words that vary (VLAN VID,
#: IPv4 total length and checksum, UDP length and checksum).
_FRAME = struct.Struct(
    f">{_VLAN_TCI}sH{_IP_TOTAL_LENGTH - _VLAN_TCI - 2}sH"
    f"{_IP_CHECKSUM - _IP_TOTAL_LENGTH - 2}sH"
    f"{_UDP_LENGTH - _IP_CHECKSUM - 2}sHH")
_ETHERNET = _COMMON_HEADER[:_VLAN_TCI]
_VLAN_TO_IP_TOS = _COMMON_HEADER[_VLAN_TCI + 2:_IP_TOTAL_LENGTH]
_IP_ID_TO_PROTO = _COMMON_HEADER[_IP_TOTAL_LENGTH + 2:_IP_CHECKSUM]
_ADDRESSES_AND_PORTS = _COMMON_HEADER[_IP_CHECKSUM + 2:_UDP_LENGTH]
#: RFC 1071 sums, as residues mod 0xFFFF, of the checksummed words that
#: never vary: the IPv4 header, and the UDP pseudo-header plus header,
#: each with its lengths and checksum zero. Every 16-bit word adds in
#: alone because ``2**16 ≡ 1 (mod 0xFFFF)``.
_IP_FIXED_SUM = int.from_bytes(
    _COMMON_HEADER[_IP_OFFSET:_UDP_OFFSET], "big") % 0xFFFF
_UDP_FIXED_SUM = int.from_bytes(
    pseudo_header_ipv4(
        int.from_bytes(_COMMON_HEADER[_IP_OFFSET + 12:_IP_OFFSET + 16],
                       "big"),
        int.from_bytes(_COMMON_HEADER[_IP_OFFSET + 16:_UDP_OFFSET], "big"),
        PROTO_UDP, 0)
    + _COMMON_HEADER[_UDP_OFFSET:_PAYLOAD_OFFSET], "big") % 0xFFFF


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
class ResourceId:
    """Decoded 12-bit resource ID: resource type + stage number.

    Immutable, so every valid ID exists once, built at import in a
    table indexed by its 12-bit code: :meth:`decode` and :meth:`of`
    hand out those shared instances rather than building one per
    configuration word. Constructing one directly gives an equal value.
    """

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
        resource = _RESOURCE_IDS[value]
        if resource is None:
            raise ReconfigurationError(
                f"unknown resource type {value >> 8}")
        return resource

    @staticmethod
    def of(rtype: ResourceType, stage: int = 0) -> "ResourceId":
        """The shared ID of ``rtype`` in ``stage``; the call sites'
        cheap equivalent of ``ResourceId(rtype, stage)``."""
        if not 0 <= stage < 256:
            raise ReconfigurationError(f"stage {stage} exceeds 8 bits")
        return ResourceId.decode(rtype << 8 | stage)


def _resource_ids() -> Tuple[Optional[ResourceId], ...]:
    codes = set(ResourceType)
    return tuple(ResourceId(ResourceType(code >> 8), code & 0xFF)
                 if code >> 8 in codes else None
                 for code in range(1 << 12))


#: Every valid :class:`ResourceId`, indexed by its 12-bit code; ``None``
#: where the 4-bit type code names no resource type. Built at import
#: because the ``mutable-global`` lint refuses a module table filled at
#: run time.
_RESOURCE_IDS = _resource_ids()


class ConfigWrite(NamedTuple):
    """One configuration write: a row value bound to a resource + index.

    What the controller sends and what a reconfiguration packet decodes
    back into (:data:`ReconfigPayload`). A plain tuple, so building one
    per word is cheap and ``(resource, index, entry)`` unpacking works.
    """

    resource: ResourceId
    index: int
    entry: int  #: the configuration word (width per resource type)


#: The decoded form of a reconfiguration packet: the write it carries,
#: so ``parse_reconfig_packet(build_reconfig_packet(*w)) == w``.
ReconfigPayload = ConfigWrite


def build_reconfig_packet(resource: ResourceId, index: int, entry: int,
                          params: HardwareParams = DEFAULT_PARAMS,
                          vid: int = 0) -> Packet:
    """Serialize a configuration write into a reconfiguration packet."""
    if not 0 <= index < 256:
        raise ReconfigurationError(f"index {index} exceeds 1 byte")
    nbytes = params.reconfig_entry_bytes[resource.rtype]
    if entry < 0 or (nbytes and entry >= (1 << (8 * nbytes))):
        raise ReconfigurationError(
            f"entry {entry:#x} does not fit {nbytes} payload bytes for "
            f"{resource.rtype.name}")
    if nbytes == 0 and entry:
        raise ReconfigurationError(
            f"{resource.rtype.name} carries no payload, got entry {entry:#x}")
    if not 0 <= vid <= MAX_VID:
        raise FieldRangeError(f"VID out of range: {vid}")

    body = (_BODY_HEAD.pack(resource.encode() << 4, index)  # 12b id | rsvd
            + _PADDING + entry.to_bytes(nbytes, "big"))
    udp_length = UDP_HEADER_LEN + len(body)
    ip_length = IPV4_HEADER_LEN + udp_length
    # Both checksums as residues (RFC 1071): the template's fixed words
    # plus the varying ones, an odd-length body padded with a zero byte.
    # Each sum is nonzero (the addresses are), so a residue of 0 folds
    # to 0xFFFF, one's-complement negative zero.
    ip_sum = _IP_FIXED_SUM + ip_length
    udp_sum = (_UDP_FIXED_SUM + 2 * udp_length
               + (int.from_bytes(body, "big") << 8 * (len(body) & 1)))
    return Packet(_FRAME.pack(
        _ETHERNET, vid, _VLAN_TO_IP_TOS, ip_length, _IP_ID_TO_PROTO,
        0xFFFF - (ip_sum % 0xFFFF or 0xFFFF), _ADDRESSES_AND_PORTS,
        udp_length,
        # RFC 768: a computed UDP checksum of 0 is transmitted as 0xFFFF.
        0xFFFF - (udp_sum % 0xFFFF or 0xFFFF) or 0xFFFF) + body)


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
    nbytes = params.reconfig_entry_bytes[resource.rtype]
    entry = 0
    if nbytes:
        start = _PAYLOAD_OFFSET + _HEADER_LEN
        if len(buf) < start + nbytes:
            raise ReconfigurationError(
                f"payload truncated: need {nbytes} entry bytes")
        entry = int.from_bytes(buf[start:start + nbytes], "big")
    return ConfigWrite(resource, index, entry)
