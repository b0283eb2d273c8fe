"""Packet builder and layer parser.

:class:`PacketBuilder` collects Ethernet / 802.1Q / IPv4 / UDP / TCP
fields in stack order; :meth:`~PacketBuilder.build` validates them,
packs each header with one precomputed :class:`struct.Struct` layout
into a single buffer, and fills in the lengths and checksums in the
same pass. :func:`parse_layers` performs the inverse: given a raw
:class:`~repro.net.packet.Packet`, it walks the layers and returns bound
header views, which are for reading and editing a packet in place.

The 46-byte Ethernet+VLAN+IPv4+UDP stack built here is exactly the
"common header" carried by every Menshen packet (Fig. 7).
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple, Union

from ..errors import FieldRangeError, PacketError
from .checksum import internet_checksum
from .ethernet import (
    ETHERNET_HEADER_LEN, ETHERTYPE_IPV4, ETHERTYPE_VLAN, EthernetHeader,
    MacAddress)
from .ipv4 import IPV4_HEADER_LEN, Ipv4Address, Ipv4Header, PROTO_TCP, PROTO_UDP
from .packet import Packet, check_unsigned
from .tcp_ import TCP_HEADER_LEN, TcpHeader
from .udp_ import UDP_HEADER_LEN, UdpHeader
from .vlan import MAX_VID, VLAN_TAG_LEN, VlanTag

#: Length of Menshen's common header: Ethernet(14) + VLAN(4) + IPv4(20) + UDP(8).
COMMON_HEADER_LEN = (ETHERNET_HEADER_LEN + VLAN_TAG_LEN + IPV4_HEADER_LEN
                     + UDP_HEADER_LEN)

#: dst | src | ethertype
_ETHERNET = struct.Struct("!6s6sH")
#: TCI | inner ethertype
_VLAN = struct.Struct("!HH")
#: version/IHL | TOS | total length | identification | flags/fragment |
#: TTL | protocol | checksum | src | dst
_IPV4 = struct.Struct("!BBHHHBBHII")
#: sport | dport | length | checksum
_UDP = struct.Struct("!HHHH")
#: sport | dport | seq | ack | data offset | flags | window | checksum |
#: urgent pointer
_TCP = struct.Struct("!HHIIBBHHH")
#: The UDP/TCP checksum's IPv4 pseudo-header: src | dst | 0 | protocol |
#: segment length
_PSEUDO = struct.Struct("!IIxBH")
_U16 = struct.Struct("!H")

#: Inner ethertype of a VLAN tag with no IPv4 layer after it
#: (experimental / no next layer).
_NO_NEXT_LAYER = 0xFFFF
_IPV4_VERSION_IHL = 0x45
_TCP_DATA_OFFSET = 5 << 4
#: Byte sizes of the UDP and TCP fields the caller sets, in write order.
_UDP_FIELD_SIZES = (2, 2)
_TCP_FIELD_SIZES = (2, 2, 4, 4, 1, 2)


class PacketBuilder:
    """Builds packets layer by layer; call :meth:`build` to serialize.

    Layers must be added in stack order (ethernet → vlan → ipv4 →
    udp/tcp → payload). ``build()`` computes IPv4 total length, UDP
    length, and all checksums, and optionally pads to a minimum size.
    """

    __slots__ = ("_eth", "_vlan", "_ipv4", "_udp", "_tcp", "_payload")

    def __init__(self) -> None:
        #: (dst, src), 6 bytes each
        self._eth: Optional[Tuple[bytes, bytes]] = None
        #: (vid, pcp, dei)
        self._vlan: Optional[Tuple[int, int, int]] = None
        #: (src, dst, ttl, dscp, identification), addresses as ints
        self._ipv4: Optional[Tuple[int, int, int, int, int]] = None
        #: (sport, dport)
        self._udp: Optional[Tuple[int, int]] = None
        #: (sport, dport, seq, ack, flags, window)
        self._tcp: Optional[Tuple[int, int, int, int, int, int]] = None
        self._payload: bytes = b""

    # -- layer setters ------------------------------------------------------

    def ethernet(self, dst="02:00:00:00:00:02",
                 src="02:00:00:00:00:01") -> "PacketBuilder":
        self._eth = (MacAddress(dst).tobytes(), MacAddress(src).tobytes())
        return self

    def vlan(self, vid: int, pcp: int = 0, dei: int = 0) -> "PacketBuilder":
        if self._eth is None:
            raise PacketError("vlan() requires ethernet() first")
        self._vlan = (vid, pcp, dei)
        return self

    def ipv4(self, src="10.0.0.1", dst="10.0.0.2", ttl: int = 64,
             dscp: int = 0, identification: int = 0) -> "PacketBuilder":
        if self._eth is None:
            raise PacketError("ipv4() requires ethernet() first")
        self._ipv4 = (Ipv4Address(src).value, Ipv4Address(dst).value,
                      ttl, dscp, identification)
        return self

    def udp(self, sport: int = 10000, dport: int = 20000) -> "PacketBuilder":
        if self._ipv4 is None:
            raise PacketError("udp() requires ipv4() first")
        if self._tcp is not None:
            raise PacketError("packet already has a TCP layer")
        self._udp = (sport, dport)
        return self

    def tcp(self, sport: int = 10000, dport: int = 20000, seq: int = 0,
            ack: int = 0, flags: int = 0,
            window: int = 65535) -> "PacketBuilder":
        if self._ipv4 is None:
            raise PacketError("tcp() requires ipv4() first")
        if self._udp is not None:
            raise PacketError("packet already has a UDP layer")
        self._tcp = (sport, dport, seq, ack, flags, window)
        return self

    def payload(self, data: bytes) -> "PacketBuilder":
        if isinstance(data, int):
            raise PacketError(
                f"payload must be bytes-like, not {type(data).__name__}")
        self._payload = bytes(data)
        return self

    # -- serialization ------------------------------------------------------

    def build(self, pad_to: int = 0, ingress_port: int = 0,
              arrival_time: float = 0.0) -> Packet:
        """Serialize the layers into a :class:`Packet`.

        Every field is checked before anything is packed, in stack
        order, so a builder with several bad fields reports the first.

        Parameters
        ----------
        pad_to:
            If nonzero, zero-pad the final packet to at least this size
            (padding is appended after the payload; lengths/checksums are
            computed before padding, matching minimal Ethernet padding
            semantics).
        """
        if self._eth is None:
            raise PacketError("packet needs at least an Ethernet layer")
        vlan, ipv4, udp, tcp = self._vlan, self._ipv4, self._udp, self._tcp
        payload = self._payload
        l4_len = (UDP_HEADER_LEN if udp is not None else
                  TCP_HEADER_LEN if tcp is not None else 0)
        segment_len = l4_len + len(payload)

        if vlan is not None:
            vid, pcp, dei = vlan
            if not 0 <= vid <= MAX_VID:
                raise FieldRangeError(f"VID out of range: {vid}")
            if not 0 <= pcp <= 7:
                raise FieldRangeError(f"PCP out of range: {pcp}")
            if dei not in (0, 1):
                raise FieldRangeError(f"DEI must be 0/1: {dei}")
        if ipv4 is not None:
            src, dst, ttl, dscp, identification = ipv4
            check_unsigned(ttl, 1)
            if not 0 <= dscp <= 0x3F:
                raise FieldRangeError(f"DSCP out of range: {dscp}")
            check_unsigned(identification, 2)
            check_unsigned(IPV4_HEADER_LEN + segment_len, 2)
        if udp is not None:
            for value, size in zip(udp, _UDP_FIELD_SIZES):
                check_unsigned(value, size)
        elif tcp is not None:
            for value, size in zip(tcp, _TCP_FIELD_SIZES):
                check_unsigned(value, size)

        ip_offset = ETHERNET_HEADER_LEN
        if vlan is not None:
            ip_offset += VLAN_TAG_LEN
        l4_offset = ip_offset
        if ipv4 is not None:
            l4_offset += IPV4_HEADER_LEN
        buf = bytearray(l4_offset + l4_len)
        _ETHERNET.pack_into(buf, 0, *self._eth,
                            ETHERTYPE_VLAN if vlan is not None else
                            ETHERTYPE_IPV4 if ipv4 is not None else 0)
        if vlan is not None:
            _VLAN.pack_into(buf, ETHERNET_HEADER_LEN,
                            pcp << 13 | dei << 12 | vid,
                            ETHERTYPE_IPV4 if ipv4 is not None
                            else _NO_NEXT_LAYER)
        if ipv4 is not None:
            protocol = (PROTO_UDP if udp is not None else
                        PROTO_TCP if tcp is not None else 0)
            _IPV4.pack_into(buf, ip_offset, _IPV4_VERSION_IHL, dscp << 2,
                            IPV4_HEADER_LEN + segment_len, identification, 0,
                            ttl, protocol, 0, src, dst)
            _U16.pack_into(buf, ip_offset + 10,
                           internet_checksum(buf[ip_offset:l4_offset]))
        if udp is not None:
            _UDP.pack_into(buf, l4_offset, *udp, segment_len, 0)
        elif tcp is not None:
            sport, dport, seq, ack, flags, window = tcp
            _TCP.pack_into(buf, l4_offset, sport, dport, seq, ack,
                           _TCP_DATA_OFFSET, flags, window, 0, 0)
        buf += payload
        if l4_len:  # UDP and TCP sit on IPv4: src, dst, protocol are set
            checksum = internet_checksum(
                _PSEUDO.pack(src, dst, protocol, segment_len)
                + buf[l4_offset:])
            if udp is not None:
                # RFC 768: a computed 0 is transmitted as 0xFFFF.
                _U16.pack_into(buf, l4_offset + 6, checksum or 0xFFFF)
            else:
                _U16.pack_into(buf, l4_offset + 16, checksum)

        pkt = Packet(buf, ingress_port, arrival_time)
        if pad_to:
            pkt.pad_to(pad_to)
        return pkt


LayerView = Union[EthernetHeader, VlanTag, Ipv4Header, UdpHeader, TcpHeader]


def parse_layers(pkt: Packet) -> Dict[str, LayerView]:
    """Walk a packet's layers and return bound views by name.

    Returns a dict with any of the keys ``ethernet``, ``vlan``, ``ipv4``,
    ``udp``, ``tcp`` that are present. Raises
    :class:`~repro.errors.TruncatedPacketError` if a layer is cut short,
    and :class:`~repro.errors.PacketError` if the IPv4 IHL is below 5.
    """
    layers: Dict[str, LayerView] = {}
    eth = EthernetHeader(pkt, 0)
    layers["ethernet"] = eth
    offset = eth.HEADER_LEN
    ethertype = eth.ethertype

    if ethertype == ETHERTYPE_VLAN:
        vlan = VlanTag(pkt, offset)
        layers["vlan"] = vlan
        offset += VlanTag.HEADER_LEN
        ethertype = vlan.inner_ethertype

    if ethertype == ETHERTYPE_IPV4:
        ip = Ipv4Header(pkt, offset)
        layers["ipv4"] = ip
        ihl = ip.ihl
        if ihl < 5:
            raise PacketError(
                f"IPv4 IHL {ihl} is below the minimum of 5 "
                f"(a {ihl * 4}-byte header)")
        offset += ihl * 4
        if ip.protocol == PROTO_UDP:
            layers["udp"] = UdpHeader(pkt, offset)
        elif ip.protocol == PROTO_TCP:
            layers["tcp"] = TcpHeader(pkt, offset)
    return layers
