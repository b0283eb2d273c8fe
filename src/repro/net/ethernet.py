"""Ethernet II header view and MAC address helper."""

from __future__ import annotations

import re

from ..errors import FieldRangeError
from .packet import HeaderView

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_ARP = 0x0806

ETHERNET_HEADER_LEN = 14

#: Six ``:``-separated octets of one or two ASCII hex digits each.
_MAC_STRING = re.compile(r"([0-9a-f]{1,2}):([0-9a-f]{1,2}):([0-9a-f]{1,2}):"
                         r"([0-9a-f]{1,2}):([0-9a-f]{1,2}):([0-9a-f]{1,2})",
                         re.ASCII | re.IGNORECASE)


class MacAddress:
    """A 48-bit MAC address with string/int/bytes conversions."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        if isinstance(value, str):
            match = _MAC_STRING.fullmatch(value)
            if match is None:
                raise FieldRangeError(f"bad MAC string: {value!r}")
            self.value = int(
                "".join([octet.zfill(2) for octet in match.groups()]), 16)
        elif isinstance(value, MacAddress):
            self.value = value.value
        elif isinstance(value, int):
            if value < 0 or value >= (1 << 48):
                raise FieldRangeError(f"MAC int out of range: {value:#x}")
            self.value = value
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 6:
                raise FieldRangeError(f"MAC needs 6 bytes, got {len(value)}")
            self.value = int.from_bytes(value, "big")
        else:
            raise FieldRangeError(f"cannot make MAC from {type(value).__name__}")

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (MacAddress, int)):
            return self.value == int(other)
        if isinstance(other, str):
            return self.value == MacAddress(other).value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def tobytes(self) -> bytes:
        return self.value.to_bytes(6, "big")

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.tobytes())

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"

    @property
    def is_multicast(self) -> bool:
        """True if the group bit (LSB of the first octet) is set."""
        return bool(self.tobytes()[0] & 0x01)

    @property
    def is_broadcast(self) -> bool:
        return self.value == (1 << 48) - 1


class EthernetHeader(HeaderView):
    """Ethernet II: dst(6) | src(6) | ethertype(2)."""

    HEADER_LEN = ETHERNET_HEADER_LEN

    @property
    def dst(self) -> MacAddress:
        return MacAddress(self._get_bytes(0, 6))

    @dst.setter
    def dst(self, value) -> None:
        self._set_bytes(0, MacAddress(value).tobytes())

    @property
    def src(self) -> MacAddress:
        return MacAddress(self._get_bytes(6, 6))

    @src.setter
    def src(self, value) -> None:
        self._set_bytes(6, MacAddress(value).tobytes())

    @property
    def ethertype(self) -> int:
        return self._get(12, 2)

    @ethertype.setter
    def ethertype(self, value: int) -> None:
        self._set(12, 2, value)
