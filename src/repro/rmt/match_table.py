"""Exact-match CAM and the Appendix-B ternary variant.

The prototype implements exact matching with the Xilinx CAM IP: 205-bit
words (193-bit key + 12-bit module ID), 16 entries per stage. Isolation
comes from the module ID being part of every stored word and appended to
every lookup key, so a module's packets can only ever hit that module's
entries regardless of how entries are laid out.

The exact-match CAM is content-addressed, as the hardware is: beside its
address-ordered rows it keeps a ``(key, module_id) -> address`` index, so
a lookup is one dictionary probe rather than a scan of every row. Writes
refuse a word another address already holds, so at most one row carries
any pair and the index answers what a lowest-address scan would.

Appendix B extends the same block to ternary matching: each entry gains a
mask, and priority on multiple matches is the entry *address* (lowest
wins here). Allocating each module a contiguous address block lets rules
be reordered within one module without disturbing any other module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bits import check_fits
from ..errors import ConfigError
from .encodings import CAM_ENTRY_BITS, KEY_BITS, MODULE_ID_BITS, decode_cam_entry, encode_cam_entry
from .params import DEFAULT_PARAMS, HardwareParams


@dataclass(frozen=True)
class CamEntry:
    """One valid CAM word, stored decomposed for readability (immutable,
    so the table's content index cannot go stale under it)."""

    key: int          #: 193-bit masked key
    module_id: int    #: 12-bit VID

    def encode(self) -> int:
        return encode_cam_entry(self.key, self.module_id)

    @classmethod
    def decode(cls, word: int) -> "CamEntry":
        key, module_id = decode_cam_entry(word)
        return cls(key=key, module_id=module_id)


@dataclass
class TernaryEntry:
    """A ternary word: value/mask pair plus the owning module ID."""

    key: int
    mask: int         #: 1-bits participate in the match
    module_id: int

    def matches(self, lookup_key: int) -> bool:
        return (lookup_key & self.mask) == (self.key & self.mask)


class ExactMatchTable:
    """Content-addressed exact-match CAM with module-ID-augmented entries.

    ``_entries`` holds the rows by address; ``_index`` maps each valid
    row's ``(key, module_id)`` to its address. Every write and
    invalidation updates both, and :meth:`lookup` reads only the index.
    """

    def __init__(self, depth: int = DEFAULT_PARAMS.match_entries_per_stage,
                 params: HardwareParams = DEFAULT_PARAMS):
        self.depth = depth
        self.params = params
        self._entries: List[Optional[CamEntry]] = [None] * depth
        self._index: Dict[Tuple[int, int], int] = {}
        self.lookup_count = 0
        self.hit_count = 0

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.depth:
            raise ConfigError(f"CAM index {index} out of range [0, {self.depth})")

    def write_entry(self, index: int, entry: CamEntry) -> None:
        """Install a typed entry at ``index`` (the canonical write path)."""
        self._check_index(index)
        check_fits(entry.key, KEY_BITS, "CAM key")
        check_fits(entry.module_id, MODULE_ID_BITS, "module id")
        # Exact-match CAMs must not hold duplicate words at two addresses:
        # the lookup result would be ambiguous (§5.1 makes the compiler
        # generate distinct entries for this reason). That also keeps
        # the index at one address per pair, so it names the holder.
        pair = (entry.key, entry.module_id)
        holder = self._index.get(pair)
        if holder is not None and holder != index:
            raise ConfigError(
                f"duplicate CAM word at addresses {holder} and {index}")
        self._unindex(index)
        self._entries[index] = entry
        self._index[pair] = index

    def _unindex(self, index: int) -> None:
        """Drop row ``index``'s pair from the index (if it holds one)."""
        old = self._entries[index]
        if old is not None:
            del self._index[(old.key, old.module_id)]

    def write(self, index: int, key: int, module_id: int) -> None:
        """Install an entry from loose ints (control-plane path)."""
        self.write_entry(index, CamEntry(key=key, module_id=module_id))

    def write_word(self, index: int, word: int) -> None:
        """Install a raw 205-bit CAM word (reconfiguration-packet path)."""
        check_fits(word, CAM_ENTRY_BITS, "CAM word")
        self.write_entry(index, CamEntry.decode(word))

    def invalidate(self, index: int) -> None:
        self._check_index(index)
        self._unindex(index)
        self._entries[index] = None

    def read(self, index: int) -> Optional[CamEntry]:
        self._check_index(index)
        return self._entries[index]

    def lookup(self, key: int, module_id: int) -> Optional[int]:
        """Return the address of the matching entry, or ``None`` on miss.

        The module ID is appended to the search word, so a key can only
        hit entries owned by the same module.
        """
        self.lookup_count += 1
        index = self._index.get((key, module_id))
        if index is not None:
            self.hit_count += 1
        return index

    def entries_of(self, module_id: int) -> List[int]:
        """Addresses currently holding entries of ``module_id``."""
        return [i for i, e in enumerate(self._entries)
                if e is not None and e.module_id == module_id]

    def occupancy(self) -> int:
        return sum(1 for e in self._entries if e is not None)


class TernaryMatchTable:
    """Appendix-B ternary CAM: value/mask entries, address-order priority.

    Lowest matching address wins, mirroring the Xilinx CAM IP's
    configurable priority. Modules should occupy contiguous address
    blocks so intra-module rule updates never move other modules' rules.
    """

    def __init__(self, depth: int = DEFAULT_PARAMS.match_entries_per_stage,
                 params: HardwareParams = DEFAULT_PARAMS):
        self.depth = depth
        self.params = params
        self._entries: List[Optional[TernaryEntry]] = [None] * depth
        self.lookup_count = 0
        self.hit_count = 0

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.depth:
            raise ConfigError(
                f"TCAM index {index} out of range [0, {self.depth})")

    def write_entry(self, index: int, entry: TernaryEntry) -> None:
        """Install a typed entry at ``index`` (the canonical write path)."""
        self._check_index(index)
        check_fits(entry.key, KEY_BITS, "TCAM key")
        check_fits(entry.mask, KEY_BITS, "TCAM mask")
        check_fits(entry.module_id, MODULE_ID_BITS, "module id")
        self._entries[index] = entry

    def write(self, index: int, key: int, mask: int, module_id: int) -> None:
        self.write_entry(index, TernaryEntry(key=key, mask=mask,
                                             module_id=module_id))

    def write_word(self, index: int, word: int) -> None:
        """Install a raw 398-bit ternary word (reconfiguration path)."""
        from .encodings import TCAM_ENTRY_BITS, decode_tcam_entry
        check_fits(word, TCAM_ENTRY_BITS, "TCAM word")
        key, mask, module_id = decode_tcam_entry(word)
        self.write_entry(index, TernaryEntry(key=key, mask=mask,
                                             module_id=module_id))

    def invalidate(self, index: int) -> None:
        self._check_index(index)
        self._entries[index] = None

    def read(self, index: int) -> Optional[TernaryEntry]:
        self._check_index(index)
        return self._entries[index]

    def lookup(self, key: int, module_id: int) -> Optional[int]:
        """Lowest-address ternary match within the module's entries."""
        self.lookup_count += 1
        for index, entry in enumerate(self._entries):
            if (entry is not None and entry.module_id == module_id
                    and entry.matches(key)):
                self.hit_count += 1
                return index
        return None

    def entries_of(self, module_id: int) -> List[int]:
        return [i for i, e in enumerate(self._entries)
                if e is not None and e.module_id == module_id]

    def occupancy(self) -> int:
        return sum(1 for e in self._entries if e is not None)
