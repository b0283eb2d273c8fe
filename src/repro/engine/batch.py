"""Batched execution over a Menshen pipeline with per-tenant flow caching.

:class:`BatchEngine` drives packets through an existing
:class:`~repro.core.pipeline.MenshenPipeline` in batches, preserving the
scalar path's observable behavior packet-for-packet while cutting the
per-packet costs:

* **One straight line per packet, arrival order.** Every packet, in a
  batch of one (every fabric-timeline hop) or of many, takes one filter
  look; a data packet of a loaded tenant then has its tenant record,
  serving context, §3.2 packet-buffer slot and epoch read once and
  handed down to :meth:`BatchEngine._serve` and the pipeline's commit,
  and any other verdict ends in the pipeline's early result. Execution
  order is exactly the scalar path's, and no path depends on the batch
  size.
* **One serving context per tenant.** What the engine knows about a VID
  — compiled classifier, certificate, cache-key slices, exact-match
  cache — is one slotted record, found with one dict lookup per packet
  and rebound when the tenant's configuration epoch,
  ``pipeline.epoch_of(vid)``, has moved. Every configuration write that
  lands through the daisy chain bumps the epoch of exactly the tenants
  whose data path can observe it; binding compiles the tenant's
  classifier anew and empties its cache shard, so nothing derived from
  an older configuration reaches the next packet, and a neighbour's
  churn leaves a tenant's context untouched. The classifier is the one
  artifact a binding derives: the cache key, the deparse write-back
  spans and the window bound are read off its parse and deparse plans.
  One bound is proved per packet (the furthest parsed or deparsed byte
  fits the parse window); under it the hot path slices and splices
  ``packet.buf`` directly.
* **Flow caching.** The context's :class:`~repro.engine.flow_cache.
  FlowCache` memoizes compiled results only — pure by construction —
  keyed on the bytes the classifier's parse plan reads. A flow is
  stored as one flat tuple of atomic values — the 24 container ints
  and the metadata bytes of :meth:`~repro.rmt.phv.PHV.snapshot`, the
  drop flag, then the bytes of each deparser write-back in plan order,
  whose offsets are the bound classifier's deparse spans — which the
  first collection after it is learned stops tracking, so a full cache
  adds no work to any collection. A hit builds a fresh PHV from the
  record's snapshot prefix: no result shares anything mutable with the
  cache.
* **Compiled classification.** On an exact-match miss (or with the
  exact-match level off), the packet is run through the tenant's
  :class:`~repro.engine.classifier.CompiledClassifier` — the installed
  configuration flattened at the tenant's current epoch into parse-plan
  copies, one hash (exact) or first-match list (ternary) per stage, and
  pre-decoded ALU op tuples. A compiled hit produces the same
  ``(merged, phv)`` the scalar walk would, seeds the exact-match cache
  (when enabled), and skips the interpreted pipeline entirely, so
  cache-hostile traffic does not degrade to the scalar walk. This level
  is always on: the scalar walk is reached only through the five
  :data:`FALLBACK_REASONS`, and what it returns is never memoized. A
  tenant whose classifier is refused (``uncompilable`` or
  ``uncertified``) therefore takes the scalar walk for every packet,
  with its cache left empty.
* **Certification (``check_compiled``).** Every classifier a binding
  compiles can be statically certified equivalent to the installed
  tables by :func:`repro.analysis.equiv.certify_classifier` —
  ``enforce`` refuses an uncertified compiled path (packets take the
  scalar oracle, counted under the ``uncertified`` fallback reason),
  ``off`` (default) skips the check. :attr:`BatchEngine.certificates`
  reads them per VID.
* **Stateful flows.** A compiled leaf that would touch stateful memory
  bails to the scalar walk per flow, and only compiled results are
  learned, so a module's stateful flows are never cache hits while its
  pure flows still are (NetCache/NetChain take the full pipeline for
  every packet that touches a register, as they must). This is also why
  register writes (``tenant.register(...).write``), which bypass the
  daisy chain, need no invalidation: no cached flow ever consulted a
  register, and no compiled leaf replays a stateful op.

The hot path is therefore three-level — exact-match cache hit →
compiled classification → scalar pipeline fallback — with
:class:`EngineCounters` attributing every packet to one level
(``cache_hits`` / ``compiled_hits`` / ``classifier_fallbacks`` by
reason) and ``compile_rebuilds`` counting bindings.
The engine writes those per-tenant counts once per packet into the
switch's :class:`~repro.core.stats.TenantRecord`; it stores only
engine-wide events, and :attr:`BatchEngine.counters` sums the rest.

Mid-batch reconfiguration (Corundum mode, where configuration packets
arrive on the shared ingress) is honored exactly: the packets ahead of
a reconfiguration packet are committed before the write is delivered,
so packets behind it in the batch observe the new configuration and
packets ahead of it the old one — same as scalar processing.

Equivalence contract: for any packet sequence, ``process_batch`` yields
results equal field-for-field (output bytes, PHV, drop reason, egress,
multicast, statistics) to ``pipeline.process`` called packet by packet.
Traffic-manager state is identical too: both paths enqueue into the
pipeline's :class:`~repro.engine.scheduler.EgressScheduler` in the same
order, so every port drains the same packet sequence — exactly what
``tests/test_engine_differential.py`` enforces across all eight
evaluated modules. The only exception is error paths: if execution
raises, the error is the scalar path's own on every level — a parse
fault, a row that does not decode, or an ingress port the 16-bit
``src_port`` metadata field cannot hold (the compiled level raises the
parser's ``FieldRangeError`` for it, so no cache entry ever holds such
a port) — but the engine has already drawn the packet's buffer slot
(the scalar path draws it after parsing), so packet-buffer round-robin
parity with the scalar path is not guaranteed from there on.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.packet_filter import DATA, NUM_BUFFERS, RECONFIG
from ..core.pipeline import MenshenPipeline
from ..core.stats import TenantRecord, diff_counters, merge_counters
from ..net.packet import Packet
from ..rmt.phv import PHV
from ..rmt.pipeline import PipelineResult
from .classifier import (
    ClassifierStats,
    CompiledClassifier,
    Fallback,
    compile_classifier,
)
from .flow_cache import FlowCache

if TYPE_CHECKING:  # pragma: no cover — type-only; engine never imports
    from ..analysis.equiv import Certificate  # analysis eagerly

#: Certification modes for ``BatchEngine(check_compiled=...)``,
#: strictest first.
CERTIFY_MODES = ("enforce", "off")

#: Every reason the classifier level can hand a packet back to the
#: scalar oracle (the keys of ``EngineCounters.classifier_fallbacks``).
FALLBACK_REASONS = ("stateful", "unsupported-action", "uncompilable",
                    "parse-window", "uncertified")


@dataclass
class EngineTenantCounters:
    """One tenant's slice of the engine counters, read off its record
    (``packets`` / ``drops`` / ``bytes_out``: the pipeline's counts)."""

    packets: int = 0
    cache_hits: int = 0
    compiled_hits: int = 0
    cache_misses: int = 0
    drops: int = 0
    bytes_out: int = 0
    compile_rebuilds: int = 0


@dataclass
class EngineCounters:
    """Engine-level accounting, overall and per tenant.

    A snapshot (:attr:`BatchEngine.counters` builds one per read): the
    per-level totals and ``per_tenant`` are read off the switch's
    tenant records (retired ones count in the totals); the rest are
    engine-wide event counts.

    Counter-unit contract: ``invalidations`` counts flushed cache
    *entries* (same unit as ``FlowCacheStats.invalidations``) and
    ``invalidation_calls`` counts :meth:`BatchEngine.invalidate` *calls*
    — a call that finds nothing to flush bumps only the latter.
    ``cache_hits``/``compiled_hits`` attribute each served packet to the
    hot-path level that produced its result; ``classifier_fallbacks``
    histograms (by reason) the packets the classifier handed back to the
    scalar pipeline. A tenant's ``compile_rebuilds`` moves only when its
    own configuration epoch did.

    :meth:`merge_from` / :meth:`delta_since` (the benchmark accounts
    each pass as a delta since a snapshot) are introspected from the
    fields by :mod:`repro.core.stats`, so no counter is ever dropped.
    """

    batches: int = 0
    packets: int = 0
    cache_hits: int = 0
    compiled_hits: int = 0
    cache_misses: int = 0
    early_drops: int = 0
    drops: int = 0
    reconfig_flushes: int = 0
    invalidations: int = 0
    invalidation_calls: int = 0
    compile_rebuilds: int = 0
    classifier_fallbacks: Dict[str, int] = field(default_factory=dict)
    per_tenant: Dict[int, EngineTenantCounters] = field(default_factory=dict)

    def tenant(self, vid: int) -> EngineTenantCounters:
        counters = self.per_tenant.get(vid)
        if counters is None:
            counters = self.per_tenant[vid] = EngineTenantCounters()
        return counters

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def merge_from(self, other: "EngineCounters") -> None:
        """Add another engine's counters into this one (introspected;
        per-tenant sub-counters merge recursively)."""
        merge_counters(self, other)

    def snapshot(self) -> "EngineCounters":
        """An independent deep copy (a baseline for
        :meth:`delta_since`)."""
        return copy.deepcopy(self)

    def delta_since(self, baseline: "EngineCounters") -> "EngineCounters":
        """A fresh ``EngineCounters`` holding ``self - baseline`` — what
        the interval since the snapshot added."""
        return diff_counters(self, baseline)


#: The per-tenant counts the engine writes into each tenant record,
#: under the same names in :class:`EngineCounters`.
_LEVELS = ("cache_hits", "compiled_hits", "cache_misses",
           "compile_rebuilds")


class _TenantContext:
    """Everything the engine holds to serve one tenant.

    ``cache`` lives as long as the engine, so its statistics survive
    :meth:`BatchEngine.invalidate`. The rest is bound by
    :meth:`BatchEngine._bind` from the configuration at ``epoch``
    (``None`` until bound — never current): ``classifier`` is compiled
    from it; ``key`` are slices of the byte spans its parse plan reads
    — the complete packet-derived input of the module's execution
    (besides length and ingress port, which the flow key carries
    separately), cut from the packet's bytes in C when the flow key is
    built; ``certificate`` is what certification said of the
    classifier; ``refusal`` the fallback reason every packet takes
    instead of the compiled level (``None``: the classifier serves).
    """

    __slots__ = ("vid", "cache", "epoch", "classifier", "key",
                 "certificate", "refusal")

    def __init__(self, vid: int, cache: FlowCache):
        self.vid = vid
        self.cache = cache
        self.purge()

    def purge(self) -> int:
        """Forget the configuration (the next packet rebinds) and flush
        the cache; returns the number of flows flushed."""
        self.epoch: Optional[int] = None
        self.classifier: Optional[CompiledClassifier] = None
        self.certificate: Optional["Certificate"] = None
        return self.cache.clear()


class BatchEngine:
    """High-throughput batched executor over one Menshen pipeline."""

    def __init__(self, pipeline: MenshenPipeline,
                 cache_capacity: int = 4096,
                 enable_cache: bool = True,
                 check_compiled: str = "off"):
        """``check_compiled`` selects the certification mode for the
        compiled-classification level: every classifier a binding
        compiles is certified against the installed tables by
        :func:`repro.analysis.equiv.certify_classifier`. ``enforce``
        refuses the compiled path on a violated certificate (packets
        fall back to the scalar oracle, counted under ``uncertified``);
        ``off`` (the default) skips certification.
        """
        if not isinstance(pipeline, MenshenPipeline):
            raise TypeError(
                f"BatchEngine drives a MenshenPipeline, got "
                f"{type(pipeline).__name__}")
        self.pipeline = pipeline
        self.cache_capacity = cache_capacity
        self.enable_cache = enable_cache
        if check_compiled not in CERTIFY_MODES:
            raise ValueError(
                f"unknown check_compiled mode {check_compiled!r}; "
                f"expected one of {CERTIFY_MODES}")
        self.check_compiled = check_compiled
        self._parse_window = pipeline.params.parse_window_bytes
        #: Engine-wide events; the per-level fields stay zero here.
        self._events = EngineCounters()
        self._contexts: Dict[int, _TenantContext] = {}

    @property
    def counters(self) -> EngineCounters:
        """A fresh :class:`EngineCounters` (see there)."""
        stats = self.pipeline.stats
        return replace(
            self._events,
            classifier_fallbacks=dict(self._events.classifier_fallbacks),
            per_tenant={vid: EngineTenantCounters(
                packets=record.packets_in, drops=record.packets_dropped,
                bytes_out=record.bytes_out,
                **{name: getattr(record, name) for name in _LEVELS})
                for vid, record in stats.tenants.items()},
            **{name: stats.total(name) for name in _LEVELS})

    # -- per-tenant contexts ----------------------------------------------------

    def _context(self, vid: int) -> _TenantContext:
        """One tenant's context (created unbound on first use)."""
        ctx = self._contexts.get(vid)
        if ctx is None:
            ctx = self._contexts[vid] = _TenantContext(
                vid, FlowCache(self.cache_capacity))
        return ctx

    def shard(self, vid: int) -> FlowCache:
        """The flow-cache shard for one tenant VID (created on demand)."""
        return self._context(vid).cache

    def classifier_stats(self) -> Dict[int, ClassifierStats]:
        """Shape summaries of the currently compiled classifiers."""
        return {vid: ctx.classifier.stats()
                for vid, ctx in self._contexts.items()
                if ctx.classifier is not None}

    @property
    def certificates(self) -> Dict[int, "Certificate"]:
        """What certification last said of each compiled classifier
        (a fresh dict per read; empty under ``check_compiled="off"``)."""
        return {vid: ctx.certificate for vid, ctx in self._contexts.items()
                if ctx.certificate is not None}

    def invalidate(self, vid: Optional[int] = None) -> int:
        """Flush cached flows (one tenant's, or everything).

        ``repro.api`` calls this when a tenant commits a transaction, is
        updated, or is evicted — making invalidation transactional at the
        API layer. A moved epoch empties the shard at the next binding
        even without this call; flushing additionally frees the entries,
        the compiled classifier and the certificate immediately.

        ``counters.invalidations`` grows by the number of entries
        actually flushed (matching ``FlowCacheStats.invalidations``);
        ``counters.invalidation_calls`` grows by one per call.
        """
        if vid is None:
            flushed = sum(ctx.purge() for ctx in self._contexts.values())
        else:
            ctx = self._contexts.get(vid)
            flushed = ctx.purge() if ctx is not None else 0
        self._events.invalidation_calls += 1
        self._events.invalidations += flushed
        return flushed

    def _bind(self, ctx: _TenantContext, record: TenantRecord,
              epoch: int) -> None:
        """Derive ``ctx`` from the configuration installed at ``epoch``:
        compile (and, unless ``check_compiled`` is off, certify) the
        classifier, read the cache key off its parse plan, and empty the
        shard of everything learned under an older configuration."""
        clf = compile_classifier(self.pipeline, ctx.vid)
        record.compile_rebuilds += 1
        ctx.classifier = clf
        ctx.key = tuple(slice(off, end) for off, end in
                        sorted({(off, end) for off, end, _flat
                                in clf._parse}))
        ctx.refusal = None if clf.ok else "uncompilable"
        if self.check_compiled != "off":
            self._certify(ctx)
        ctx.cache.clear()
        ctx.epoch = epoch

    def _certify(self, ctx: _TenantContext) -> None:
        # Lazy import: the engine must stay importable without dragging
        # the analysis layer in — only certifying engines pay for it.
        from ..analysis.equiv import certify_classifier

        ctx.certificate = certify_classifier(self.pipeline, ctx.classifier)
        if not ctx.certificate.ok:
            ctx.refusal = "uncertified"

    # -- data plane ---------------------------------------------------------------

    def process(self, packet: Packet) -> PipelineResult:
        """Single-packet convenience wrapper around :meth:`process_batch`."""
        return self.process_batch([packet])[0]

    def process_batch(self, packets: Sequence[Packet]
                      ) -> List[PipelineResult]:
        """Process a batch; results are in submission order.

        Each packet goes straight through, as on the scalar path: one
        filter look, then its tenant's record, context, §3.2
        packet-buffer slot and epoch, read once and handed to
        :meth:`_serve` and the pipeline's commit. A reconfiguration
        packet is therefore a barrier: the packets ahead of it are
        committed before its configuration write lands.
        """
        events = self._events
        events.batches += 1
        events.packets += len(packets)
        pipeline = self.pipeline
        filt, stats = pipeline.packet_filter, pipeline.stats
        results: List[PipelineResult] = []
        for packet in packets:
            verdict, vid = filt.look(packet)
            if verdict is DATA and vid in pipeline.loaded_modules:
                record = stats.tenants.get(vid) or stats.tenant(vid)
                record.packets_in += 1
                ctx = self._contexts.get(vid) or self._context(vid)
                # assign_buffer and epoch_of, inline
                slot = filt._next_buffer
                filt._next_buffer = (slot + 1) % NUM_BUFFERS
                merged, phv, hit = self._serve(
                    ctx, record,
                    pipeline._tenant_epochs.get(vid, pipeline._shared_epoch),
                    packet, slot)
                result = pipeline.commit(merged, phv, vid, hit, record)
                if result.dropped:
                    events.drops += 1
            else:
                if verdict is RECONFIG:
                    events.reconfig_flushes += 1
                else:
                    events.early_drops += 1
                result = pipeline._early(packet, verdict, vid)
            results.append(result)
        return results

    def _serve(self, ctx: _TenantContext, record: TenantRecord,
               epoch: int, packet: Packet, slot: int
               ) -> Tuple[Optional[Packet], object, bool]:
        """Serve one admitted packet of the tenant whose context, record
        and current epoch are given: cache hit -> compiled -> scalar.

        Returns ``(merged, phv, cache_hit)``.
        """
        if ctx.epoch != epoch:
            self._bind(ctx, record, epoch)
        clf = ctx.classifier
        # The one bound every raw slice and splice below relies on.
        length = len(packet.buf)
        max_end = clf.max_end
        if max_end > length or max_end > self._parse_window:
            reason = "parse-window"
        elif ctx.refusal is not None:
            reason = ctx.refusal
        else:
            key = None
            # Level 1: exact-match flow-cache hit.
            if self.enable_cache:
                raw = bytes(packet.buf)
                key = (length, packet.ingress_port,
                       *map(raw.__getitem__, ctx.key))
                entry = ctx.cache.lookup(key)
                if entry is not None:
                    record.cache_hits += 1
                    phv = PHV.from_snapshot(entry)
                    phv.metadata.buf[1] = 1 << slot  # buffer_tag
                    if entry[25]:
                        return None, phv, True
                    # ``raw`` is already a copy of the bytes: no second
                    merged = Packet(raw, packet.ingress_port,
                                    packet.arrival_time)
                    out = merged.buf
                    i = 26  # the write-backs follow the drop flag
                    for off, end, _flat, _size in clf._deparse:
                        out[off:end] = entry[i]
                        i += 1
                    return merged, phv, True

            # Level 2: compiled classification.
            outcome = clf.classify(packet, slot)
            if type(outcome) is not Fallback:
                merged, phv = outcome
                record.compiled_hits += 1
                if key is not None:
                    # Learn it: the window bound holds for ``merged``
                    # too — the deparser never resizes.
                    record.cache_misses += 1
                    writes = []
                    if merged is not None:
                        out = bytes(merged.buf)
                        writes = [out[off:end] for off, end, _flat, _size
                                  in clf._deparse]
                    ctx.cache.insert(key, (*phv.snapshot(), merged is None,
                                           *writes))
                return merged, phv, False
            reason = outcome.reason
        fallbacks = self._events.classifier_fallbacks
        fallbacks[reason] = fallbacks.get(reason, 0) + 1

        # Level 3: the scalar pipeline walk (the differential oracle),
        # never memoized.
        merged, phv = self.pipeline.execute(packet, ctx.vid,
                                            buffer_slot=slot)
        return merged, phv, False
