"""Per-tenant exact-match flow cache (the NuevoMatchUp/OVS-megaflow idea).

A :class:`FlowCache` memoizes the *transformation* a module applies to a
flow: the final PHV and the exact byte rewrites the deparser performed.
Entries are keyed on the bytes the module's parse program actually reads
(plus packet length and ingress port — the only other packet inputs the
pipeline consumes). One shard holds one tenant's flows learned under
one configuration: the engine empties it whenever it rebinds the tenant
at a new ``pipeline.epoch_of(vid)``, so an entry carries no epoch.

Only results of the tenant's
:class:`~repro.engine.classifier.CompiledClassifier` are admitted, and
those are pure by construction: a flow that would touch stateful memory
(``LOAD``/``STORE``/``LOADD``) bails out of the compiled level to the
scalar walk, whose results are never memoized — replaying them would
skip side effects and read stale state.

Eviction is LRU with a fixed capacity, so one heavy tenant's flow churn
cannot grow the cache without bound.

Each record (:data:`FlowEntry`) is one flat tuple of atomic values —
ints, ``bytes`` and a bool — not an object graph. A collection stops
tracking an exact tuple whose items are all untracked, and every
collection, the youngest generation's included, examines the objects
made since the last one: a record leaves the collector's lists at the
first collection after it is learned, before it can be promoted, and a
full cache adds nothing to any later garbage-collector pass. A record
that nests tuples is untracked one nesting level per collection, by
which time it has reached an older generation; a record of objects (a
dataclass holding a ``PHV``, or a ``NamedTuple``) stays tracked, ≈ 7
tracked objects per flow, which every full collection walks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

#: Cache key: (packet length, ingress port, bytes of each parsed region).
FlowKey = Tuple

#: One memoized flow result, ``(*phv, dropped, *writes)``: one flat
#: tuple of atomic values, so the garbage collector never walks it (see
#: the module docstring). Its first 25 items are the final PHV's
#: :meth:`~repro.rmt.phv.PHV.snapshot` — the 24 containers in flat
#: order, then the metadata bytes — from which a hit rebuilds a fresh
#: PHV, one list of its own, and overwrites the per-packet buffer tag,
#: so the snapshot's own tag never leaks. Item 25 is the drop flag. The
#: rest replay the deparser: the bytes each write-back left, in
#: deparse-plan order. Their offsets are not stored: they are the
#: spans of the classifier the shard was learned under, and the shard
#: is emptied whenever the tenant is bound to another one.
FlowEntry = Tuple[object, ...]


@dataclass
class FlowCacheStats:
    """Counters for one tenant's cache shard.

    Occupancy invariant (each removal path has exactly one counter):
    ``len(cache) == insertions - evictions - replacements -
    invalidations``. A replacement is an :meth:`FlowCache.insert` that
    overwrote a live entry for the same key — it counts toward both
    ``insertions`` and ``replacements``, leaving occupancy unchanged.
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    replacements: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class FlowCache:
    """LRU exact-match result cache for one tenant (VID)."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[FlowKey, FlowEntry]" = OrderedDict()
        self.stats = FlowCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: FlowKey) -> Optional[FlowEntry]:
        """Return the entry for ``key``, or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def insert(self, key: FlowKey, entry: FlowEntry) -> None:
        if key in self._entries:
            # Overwriting an entry replaces rather than grows: count it
            # so ``insertions - evictions - replacements -
            # invalidations`` keeps tracking occupancy.
            self._entries.move_to_end(key)
            self.stats.replacements += 1
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = entry
        self.stats.insertions += 1

    def clear(self) -> int:
        """Drop every entry; returns how many were flushed."""
        flushed = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += flushed
        return flushed
