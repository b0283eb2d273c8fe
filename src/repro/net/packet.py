"""Mutable raw packet buffer.

A :class:`Packet` wraps a ``bytearray`` and offers bounds-checked byte and
integer accessors. All protocol header classes in this package are views
over a ``Packet`` at some byte offset; the RMT parser/deparser also read
and write packets through this interface.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import FieldRangeError, TruncatedPacketError


def check_unsigned(value: int, length: int) -> None:
    """Raise :class:`FieldRangeError` unless ``value`` fits in ``length``
    big-endian bytes."""
    if value < 0 or value >= (1 << (8 * length)):
        raise FieldRangeError(
            f"value {value:#x} does not fit in {length} bytes")


class Packet:
    """A mutable packet: raw bytes plus simulation metadata.

    Parameters
    ----------
    data:
        Initial packet bytes (any bytes-like object). Copied, once, into
        an internal ``bytearray``.
    ingress_port:
        Port the packet arrived on (simulation metadata, not wire bytes).
    arrival_time:
        Arrival timestamp in seconds (used by timed experiments).
    """

    __slots__ = ("buf", "ingress_port", "arrival_time")

    def __init__(self, data: bytes = b"", ingress_port: int = 0,
                 arrival_time: float = 0.0):
        self.buf = bytearray(data)
        self.ingress_port = ingress_port
        self.arrival_time = arrival_time

    # -- size ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.buf)

    def __iter__(self) -> Iterator[int]:
        return iter(self.buf)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Packet):
            return self.buf == other.buf
        if isinstance(other, (bytes, bytearray)):
            return self.buf == other
        return NotImplemented

    def __repr__(self) -> str:
        head = bytes(self.buf[:16]).hex()
        suffix = "..." if len(self.buf) > 16 else ""
        return f"Packet({len(self.buf)}B, {head}{suffix})"

    def copy(self) -> "Packet":
        """Deep copy (new buffer, same metadata)."""
        return Packet(self.buf, self.ingress_port, self.arrival_time)

    # -- bounds-checked raw access -------------------------------------------

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0:
            raise TruncatedPacketError(
                f"negative offset/length ({offset}, {length})")
        if offset + length > len(self.buf):
            raise TruncatedPacketError(
                f"access [{offset}:{offset + length}) past end of "
                f"{len(self.buf)}-byte packet")

    def read_bytes(self, offset: int, length: int) -> bytes:
        """Return ``length`` bytes starting at ``offset``."""
        self._check_range(offset, length)
        return bytes(self.buf[offset:offset + length])

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Overwrite bytes at ``offset`` (must stay within the buffer)."""
        self._check_range(offset, len(data))
        self.buf[offset:offset + len(data)] = data

    def read_int(self, offset: int, length: int) -> int:
        """Read a big-endian unsigned integer of ``length`` bytes."""
        return int.from_bytes(self.read_bytes(offset, length), "big")

    def write_int(self, offset: int, length: int, value: int) -> None:
        """Write a big-endian unsigned integer of ``length`` bytes."""
        check_unsigned(value, length)
        self.write_bytes(offset, value.to_bytes(length, "big"))

    # -- growth ---------------------------------------------------------------

    def append(self, data: bytes) -> None:
        """Append bytes at the end of the packet."""
        self.buf.extend(data)

    def pad_to(self, size: int, fill: int = 0) -> None:
        """Zero-pad the packet to at least ``size`` bytes."""
        if len(self.buf) < size:
            self.buf.extend(bytes([fill]) * (size - len(self.buf)))

    def truncate(self, size: int) -> None:
        """Drop bytes beyond ``size``."""
        del self.buf[size:]

    def tobytes(self) -> bytes:
        return bytes(self.buf)


class HeaderView:
    """Base class for protocol header views bound to ``(packet, offset)``.

    Subclasses declare ``HEADER_LEN`` and expose fields as properties that
    read/write through the packet buffer. Construction validates that the
    full header fits inside the packet.
    """

    HEADER_LEN = 0

    def __init__(self, packet: Packet, offset: int = 0):
        packet._check_range(offset, self.HEADER_LEN)
        self.packet = packet
        self.offset = offset

    # Helpers keeping subclasses one-liners per field.
    def _get(self, rel: int, length: int) -> int:
        return self.packet.read_int(self.offset + rel, length)

    def _set(self, rel: int, length: int, value: int) -> None:
        self.packet.write_int(self.offset + rel, length, value)

    def _get_bytes(self, rel: int, length: int) -> bytes:
        return self.packet.read_bytes(self.offset + rel, length)

    def _set_bytes(self, rel: int, data: bytes) -> None:
        self.packet.write_bytes(self.offset + rel, data)

    @property
    def end_offset(self) -> int:
        """Byte offset just past this header (start of the next layer)."""
        return self.offset + self.HEADER_LEN
