"""Packet Header Vector (PHV) and container addressing.

The PHV is the bus that carries parsed headers through the pipeline. The
prototype's PHV (§4.1) is 128 bytes: 8 containers each of 2, 4, and 6
bytes (24 data containers) plus one 32-byte platform-metadata container,
for 25 containers total — one ALU per container.

Isolation property reproduced here: a PHV is **zeroed for every incoming
packet** so no container contents can leak between modules (§4.1).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, List, Tuple, Union

from ..errors import ConfigError, FieldRangeError
from .params import HardwareParams


class ContainerType(IntEnum):
    """2-bit container type code used in parse actions and operand refs."""

    B2 = 0   #: 2-byte container
    B4 = 1   #: 4-byte container
    B6 = 2   #: 6-byte container
    META = 3 #: the single 32-byte metadata container (not ALU-addressable)

    @property
    def size_bytes(self) -> int:
        return _CONTAINER_BYTES[self]


#: Indexed by type code.
_CONTAINER_BYTES = (2, 4, 6, 32)
_CONTAINER_MASKS = tuple((1 << (8 * size)) - 1 for size in _CONTAINER_BYTES)
_META = ContainerType.META
_NOT_WRITABLE = ("metadata container is not directly writable; "
                 "use .metadata fields")

#: The PHV geometry a 5-bit ALU operand (2-bit type, 3-bit index) and
#: :attr:`PHV.data` address, by :class:`HardwareParams` field.
_ADDRESSABLE = (("containers_per_type", 8), ("container_sizes", (2, 4, 6)),
                ("metadata_bytes", 32))


def check_phv_geometry(params: HardwareParams) -> None:
    """Raise :class:`~repro.errors.ConfigError` naming the first PHV
    geometry field a pipeline cannot address. :class:`HardwareParams`
    alone may vary them, for area models and width tables."""
    for name, addressable in _ADDRESSABLE:
        if getattr(params, name) != addressable:
            raise ConfigError(
                f"{name} {getattr(params, name)!r} is not addressable: "
                f"5-bit ALU operands need {name} {addressable!r}")


#: :meth:`PHV.snapshot`'s value: the 24 data containers in flat order,
#: then the metadata bytes, as one flat tuple.
PhvSnapshot = Tuple[Union[int, bytes], ...]


class ContainerRef:
    """A (type, index) reference to one PHV container.

    Encodes to the 5-bit operand format used by ALU actions:
    ``type(2b) | index(3b)``. ``flat_index`` is the global ALU/container
    index 0..24 (2B: 0-7, 4B: 8-15, 6B: 16-23, metadata: 24), the
    position of a data container in :attr:`PHV.data`.
    """

    __slots__ = ("ctype", "index", "flat_index")

    def __init__(self, ctype: ContainerType, index: int):
        if type(ctype) is not ContainerType:
            ctype = ContainerType(ctype)  # an int code; two Python calls
        limit = 1 if ctype == ContainerType.META else 8
        if not 0 <= index < limit:
            raise FieldRangeError(
                f"container index {index} out of range for {ctype.name}")
        self.ctype = ctype
        self.index = index
        self.flat_index = int(ctype) * 8 + index

    def encode5(self) -> int:
        """5-bit encoding: type in bits 4:3, index in bits 2:0."""
        return (int(self.ctype) << 3) | self.index

    @classmethod
    def decode5(cls, code: int) -> "ContainerRef":
        if not 0 <= code < 32:
            raise FieldRangeError(f"5-bit container code out of range: {code}")
        return cls(ContainerType((code >> 3) & 0x3), code & 0x7)

    @property
    def size_bytes(self) -> int:
        return self.ctype.size_bytes

    @classmethod
    def from_flat(cls, flat: int) -> "ContainerRef":
        if not 0 <= flat <= 24:
            raise FieldRangeError(f"flat container index out of range: {flat}")
        if flat == 24:
            return cls(ContainerType.META, 0)
        return cls(ContainerType(flat // 8), flat % 8)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ContainerRef):
            return self.ctype == other.ctype and self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctype, self.index))

    def __repr__(self) -> str:
        return f"ContainerRef({self.ctype.name}, {self.index})"


class Metadata:
    """The 32-byte platform-metadata container, with named fields.

    Byte layout (a documented choice; the paper fixes the size at 32 B and
    names the contents — drop indication, destination port, source port,
    packet length, packet-buffer tag, queueing timestamps — but not their
    offsets):

    ====== ===== =========================================
    offset bytes field
    ====== ===== =========================================
    0      1     flags (bit 0 = discard)
    1      1     packet-buffer tag (4-bit one-hot, §3.2)
    2      2     destination port
    4      2     source port
    6      2     packet length
    8      2     multicast group (0 = unicast)
    10     4     enqueue timestamp (cycles)
    14     4     queueing delay (cycles)
    18     2     module ID (VLAN ID, carried alongside the PHV)
    20     12    scratch for temporary packet headers
    ====== ===== =========================================
    """

    SIZE = 32

    _FIELDS: Dict[str, Tuple[int, int]] = {
        "flags": (0, 1),
        "buffer_tag": (1, 1),
        "dst_port": (2, 2),
        "src_port": (4, 2),
        "pkt_len": (6, 2),
        "mcast_group": (8, 2),
        "enq_timestamp": (10, 4),
        "queue_delay": (14, 4),
        "module_id": (18, 2),
    }

    FLAG_DISCARD = 0x01

    def __init__(self) -> None:
        self.buf = bytearray(self.SIZE)

    def _get(self, name: str) -> int:
        off, ln = self._FIELDS[name]
        return int.from_bytes(self.buf[off:off + ln], "big")

    def _set(self, name: str, value: int) -> None:
        off, ln = self._FIELDS[name]
        if value < 0 or value >= (1 << (8 * ln)):
            raise FieldRangeError(f"metadata {name}={value} out of range")
        self.buf[off:off + ln] = value.to_bytes(ln, "big")

    # Named accessors — explicit beats dynamic attribute magic here.
    @property
    def discard(self) -> bool:
        return bool(self._get("flags") & self.FLAG_DISCARD)

    @discard.setter
    def discard(self, value: bool) -> None:
        flags = self._get("flags")
        if value:
            flags |= self.FLAG_DISCARD
        else:
            flags &= ~self.FLAG_DISCARD
        self._set("flags", flags)

    @property
    def buffer_tag(self) -> int:
        return self._get("buffer_tag")

    @buffer_tag.setter
    def buffer_tag(self, value: int) -> None:
        self._set("buffer_tag", value)

    @property
    def dst_port(self) -> int:
        return self._get("dst_port")

    @dst_port.setter
    def dst_port(self, value: int) -> None:
        self._set("dst_port", value)

    @property
    def src_port(self) -> int:
        return self._get("src_port")

    @src_port.setter
    def src_port(self, value: int) -> None:
        self._set("src_port", value)

    @property
    def pkt_len(self) -> int:
        return self._get("pkt_len")

    @pkt_len.setter
    def pkt_len(self, value: int) -> None:
        self._set("pkt_len", value)

    @property
    def mcast_group(self) -> int:
        return self._get("mcast_group")

    @mcast_group.setter
    def mcast_group(self, value: int) -> None:
        self._set("mcast_group", value)

    @property
    def enq_timestamp(self) -> int:
        return self._get("enq_timestamp")

    @enq_timestamp.setter
    def enq_timestamp(self, value: int) -> None:
        self._set("enq_timestamp", value)

    @property
    def queue_delay(self) -> int:
        return self._get("queue_delay")

    @queue_delay.setter
    def queue_delay(self, value: int) -> None:
        self._set("queue_delay", value)

    @property
    def module_id(self) -> int:
        return self._get("module_id")

    @module_id.setter
    def module_id(self, value: int) -> None:
        self._set("module_id", value)

    def copy(self) -> "Metadata":
        dup = Metadata.__new__(Metadata)  # no zeroed buffer to discard
        dup.buf = bytearray(self.buf)
        return dup


class PHV:
    """A packet header vector: 24 data containers + metadata.

    Container values are unsigned ints bounded by each container's byte
    width. A fresh PHV is all-zero (the hardware zeroes the PHV per
    packet to prevent cross-module leaks).

    ``data`` holds the data containers as one list of 24 ints in the
    §4.1 flat ALU order, ``data[ref.flat_index]`` (B2 0-7, B4 8-15, B6
    16-23). It is the one raw view the parser, deparser, key extractor
    and action engine use; whoever writes through it keeps each value
    inside its container's width, as :meth:`set`, :meth:`set_wrapping`
    and :meth:`set_bytes` do.
    """

    def __init__(self) -> None:
        self.data: List[int] = [0] * 24
        self.metadata = Metadata()

    @classmethod
    def from_container_values(cls, vals: List[int]) -> "PHV":
        """Build a PHV on 24 flat container values, with zeroed
        metadata. The PHV takes ``vals`` as its own ``data``: the caller
        hands over a fresh list whose values each fit their container."""
        phv = cls.__new__(cls)  # every field is set below
        phv.data = vals
        phv.metadata = Metadata()
        return phv

    # -- container access ------------------------------------------------------

    def get(self, ref: ContainerRef) -> int:
        if ref.ctype is _META:
            raise ConfigError("metadata container is not directly readable; "
                              "use .metadata fields")
        return self.data[ref.flat_index]

    def set(self, ref: ContainerRef, value: int) -> None:
        if ref.ctype is _META:
            raise ConfigError(_NOT_WRITABLE)
        limit = 1 << (8 * ref.size_bytes)
        if value < 0 or value >= limit:
            raise FieldRangeError(
                f"value {value:#x} does not fit {ref.size_bytes}-byte "
                f"container {ref!r}")
        self.data[ref.flat_index] = value

    def set_wrapping(self, ref: ContainerRef, value: int) -> None:
        """Set a container, truncating to its width (ALU wraparound)."""
        ctype = ref.ctype
        if ctype is _META:
            raise ConfigError(_NOT_WRITABLE)
        self.data[ref.flat_index] = value & _CONTAINER_MASKS[ctype]

    def get_bytes(self, ref: ContainerRef) -> bytes:
        return self.get(ref).to_bytes(ref.size_bytes, "big")

    def set_bytes(self, ref: ContainerRef, data: bytes) -> None:
        if ref.ctype is _META:
            raise ConfigError(_NOT_WRITABLE)
        if len(data) != ref.size_bytes:
            raise FieldRangeError(
                f"{ref!r} needs {ref.size_bytes} bytes, got {len(data)}")
        self.data[ref.flat_index] = int.from_bytes(data, "big")

    def is_zero(self) -> bool:
        """True if every data container and metadata byte is zero."""
        return not any(self.data) and not any(self.metadata.buf)

    def copy(self) -> "PHV":
        dup = PHV.__new__(PHV)  # no zeroed containers to discard
        dup.data = self.data[:]
        dup.metadata = self.metadata.copy()
        return dup

    def snapshot(self) -> PhvSnapshot:
        """Every container and metadata byte as one immutable value,
        ``(*data, metadata)``: 24 ints, then ``bytes``.

        It holds atomic values only, so the first collection that sees
        it untracks it, and a store of many snapshots costs later
        collections nothing.
        """
        return (*self.data, bytes(self.metadata.buf))

    @classmethod
    def from_snapshot(cls, snap: PhvSnapshot) -> "PHV":
        """A fresh, independently mutable PHV equal to the one
        :meth:`snapshot` was taken of. Only the snapshot's first 25
        items are read, so a longer tuple that starts with one (a flow
        cache record) serves as well."""
        phv = cls.__new__(cls)  # every field is set below
        phv.data = list(snap[:24])
        metadata = phv.metadata = Metadata.__new__(Metadata)
        metadata.buf = bytearray(snap[24])
        return phv

    def containers(self) -> List[Tuple[ContainerRef, int]]:
        """All (ref, value) pairs of the 24 data containers."""
        return [(ContainerRef.from_flat(flat), value)
                for flat, value in enumerate(self.data)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PHV):
            return NotImplemented
        return (self.data == other.data
                and self.metadata.buf == other.metadata.buf)

    def __repr__(self) -> str:
        nonzero = [(r, v) for r, v in self.containers() if v]
        return f"PHV({len(nonzero)} nonzero containers)"
