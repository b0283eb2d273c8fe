"""IPv4 header view and address helper."""

from __future__ import annotations

import re

from ..errors import FieldRangeError
from .checksum import internet_checksum
from .packet import HeaderView

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

IPV4_HEADER_LEN = 20  # without options; the library emits IHL=5 headers.

#: Four ``.``-separated octets of one to three ASCII decimal digits each
#: (leading zeros allowed); the value bound is checked after the match.
_IPV4_STRING = re.compile(r"(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})",
                          re.ASCII)


class Ipv4Address:
    """A 32-bit IPv4 address convertible from str/int/bytes."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        if isinstance(value, str):
            match = _IPV4_STRING.fullmatch(value)
            if match is None:
                raise FieldRangeError(f"bad IPv4 string: {value!r}")
            a, b, c, d = map(int, match.groups())
            if max(a, b, c, d) > 255:
                raise FieldRangeError(f"bad IPv4 string: {value!r}")
            self.value = a << 24 | b << 16 | c << 8 | d
        elif isinstance(value, Ipv4Address):
            self.value = value.value
        elif isinstance(value, int):
            if value < 0 or value >= (1 << 32):
                raise FieldRangeError(f"IPv4 int out of range: {value:#x}")
            self.value = value
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 4:
                raise FieldRangeError(f"IPv4 needs 4 bytes, got {len(value)}")
            self.value = int.from_bytes(value, "big")
        else:
            raise FieldRangeError(f"cannot make IPv4 from {type(value).__name__}")

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Ipv4Address, int)):
            return self.value == int(other)
        if isinstance(other, str):
            return self.value == Ipv4Address(other).value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def tobytes(self) -> bytes:
        return self.value.to_bytes(4, "big")

    def __str__(self) -> str:
        return ".".join(str(b) for b in self.tobytes())

    def __repr__(self) -> str:
        return f"Ipv4Address('{self}')"

    def in_subnet(self, base: "Ipv4Address", prefix_len: int) -> bool:
        """True if this address falls inside ``base/prefix_len``."""
        if not 0 <= prefix_len <= 32:
            raise FieldRangeError(f"bad prefix length: {prefix_len}")
        if prefix_len == 0:
            return True
        shift = 32 - prefix_len
        return (self.value >> shift) == (int(base) >> shift)


class Ipv4Header(HeaderView):
    """IPv4 (IHL=5): standard 20-byte header with checksum support."""

    HEADER_LEN = IPV4_HEADER_LEN

    @property
    def version(self) -> int:
        return self._get(0, 1) >> 4

    @property
    def ihl(self) -> int:
        return self._get(0, 1) & 0x0F

    def set_version_ihl(self, version: int = 4, ihl: int = 5) -> None:
        self._set(0, 1, ((version & 0xF) << 4) | (ihl & 0xF))

    @property
    def dscp(self) -> int:
        """Differentiated services code point (top 6 bits of the TOS byte).

        The QoS use case (Table 3) writes this field.
        """
        return self._get(1, 1) >> 2

    @dscp.setter
    def dscp(self, value: int) -> None:
        if not 0 <= value <= 0x3F:
            raise FieldRangeError(f"DSCP out of range: {value}")
        ecn = self._get(1, 1) & 0x3
        self._set(1, 1, (value << 2) | ecn)

    @property
    def ecn(self) -> int:
        return self._get(1, 1) & 0x3

    @property
    def total_length(self) -> int:
        return self._get(2, 2)

    @total_length.setter
    def total_length(self, value: int) -> None:
        self._set(2, 2, value)

    @property
    def identification(self) -> int:
        return self._get(4, 2)

    @identification.setter
    def identification(self, value: int) -> None:
        self._set(4, 2, value)

    @property
    def flags_fragment(self) -> int:
        return self._get(6, 2)

    @flags_fragment.setter
    def flags_fragment(self, value: int) -> None:
        self._set(6, 2, value)

    @property
    def ttl(self) -> int:
        return self._get(8, 1)

    @ttl.setter
    def ttl(self, value: int) -> None:
        self._set(8, 1, value)

    @property
    def protocol(self) -> int:
        return self._get(9, 1)

    @protocol.setter
    def protocol(self, value: int) -> None:
        self._set(9, 1, value)

    @property
    def checksum(self) -> int:
        return self._get(10, 2)

    @checksum.setter
    def checksum(self, value: int) -> None:
        self._set(10, 2, value)

    @property
    def src(self) -> Ipv4Address:
        return Ipv4Address(self._get_bytes(12, 4))

    @src.setter
    def src(self, value) -> None:
        self._set_bytes(12, Ipv4Address(value).tobytes())

    @property
    def dst(self) -> Ipv4Address:
        return Ipv4Address(self._get_bytes(16, 4))

    @dst.setter
    def dst(self, value) -> None:
        self._set_bytes(16, Ipv4Address(value).tobytes())

    def update_checksum(self) -> int:
        """Recompute and store the header checksum; returns the value."""
        self.checksum = 0
        value = internet_checksum(self._get_bytes(0, self.HEADER_LEN))
        self.checksum = value
        return value

    def checksum_ok(self) -> bool:
        return internet_checksum(self._get_bytes(0, self.HEADER_LEN)) == 0
