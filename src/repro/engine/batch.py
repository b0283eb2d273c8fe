"""Batched execution over a Menshen pipeline with per-tenant flow caching.

:class:`BatchEngine` drives packets through an existing
:class:`~repro.core.pipeline.MenshenPipeline` in batches, preserving the
scalar path's observable behavior packet-for-packet while amortizing the
per-packet costs:

* **Per-VID sharded dispatch.** A batch is admitted in arrival order
  (filter verdicts, statistics, §3.2 packet-buffer slots), then executed
  shard-by-shard — one shard per tenant VID — and committed back to the
  traffic manager in arrival order. Tenants share no data-plane state
  (overlay config, segmented stateful memory), so per-shard execution
  is observationally identical to interleaved scalar execution.
* **Flow caching.** Each shard owns a :class:`~repro.engine.flow_cache.
  FlowCache` memoizing pure flow transformations, keyed on the bytes the
  module's parse program reads and validated against the tenant's
  configuration epoch, ``pipeline.epoch_of(vid)``. Any configuration
  write that lands through the daisy chain — every ``repro.api`` table
  insert/delete, transaction, module load/update/evict — bumps the epoch
  of exactly the tenants whose data path can observe it and thereby
  invalidates their stale entries before the next packet can see them;
  a neighbour's churn leaves a tenant's entries, layout and compiled
  classifier untouched.
* **Compiled classification (flow cache v2).** On an exact-match miss,
  the packet is run through the tenant's
  :class:`~repro.engine.classifier.CompiledClassifier` — the installed
  configuration flattened at the tenant's current epoch into parse-plan
  copies, per-stage interval/hash match structures, and pre-decoded ALU
  op tuples. A compiled hit produces the same ``(merged, phv)`` the scalar
  walk would, seeds the exact-match cache (when enabled), and skips the
  interpreted pipeline entirely, so cache-hostile traffic no longer
  degrades to the scalar walk. Classifiers are rebuilt lazily when the
  tenant's epoch moves and purged by :meth:`invalidate` alongside the
  shards.
* **Certification (``check_compiled``).** Every lazy classifier rebuild
  can be statically certified equivalent to the installed tables by
  :func:`repro.analysis.equiv.certify_classifier` — ``enforce`` refuses
  an uncertified compiled path (packets take the scalar oracle, counted
  under the ``uncertified`` fallback reason), ``warn`` emits an
  :class:`~repro.analysis.verify.AnalysisWarning`, ``off`` (default)
  skips the check. Certificates are kept in
  :attr:`BatchEngine.certificates` per VID.
* **Stateful bypass.** A packet whose execution touches stateful memory
  is never memoized, and its module stops probing the cache until the
  next reconfiguration (state-carrying modules like NetCache/NetChain
  take the full pipeline every time, as they must); compiled leaves that
  would touch stateful memory bail to the scalar walk per flow. This is
  also why register writes (``tenant.register(...).write``), which
  bypass the daisy chain, need no invalidation: no cached flow ever
  consulted a register, and no compiled leaf replays a stateful op.

The hot path is therefore three-level — exact-match cache hit →
compiled classification → scalar pipeline fallback — with
:class:`EngineCounters` attributing every packet to one level
(``cache_hits`` / ``compiled_hits`` / ``classifier_fallbacks`` by
reason) and ``compile_rebuilds`` counting epoch-driven recompiles.

Mid-batch reconfiguration (Corundum mode, where configuration packets
arrive on the shared ingress) is honored exactly: the engine flushes all
pending shards before delivering a reconfiguration packet, so packets
behind it in the batch observe the new configuration and packets ahead
of it the old one — same as scalar processing.

Equivalence contract: for any packet sequence, ``process_batch`` yields
results equal field-for-field (output bytes, PHV, drop reason, egress,
multicast, statistics) to ``pipeline.process`` called packet by packet.
Traffic-manager state matches up to scheduling: with the plain FIFO TM
the queue contents are identical; with the weighted-fair
:class:`~repro.engine.scheduler.EgressScheduler` that
``switch.engine()`` installs by default, service order may interleave
*across* tenants (that is the scheduler's job) but per-port packet
multisets and per-(port, tenant) orderings are identical — exactly
what ``tests/test_engine_differential.py`` enforces across all eight
evaluated modules. The only exception is error paths: if execution
raises (e.g. a parse fault), the batch aborts mid-flight and
packet-buffer round-robin parity with the scalar path is not
guaranteed.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.pipeline import MenshenPipeline
from ..core.stats import diff_counters, merge_counters
from ..net.packet import Packet
from ..rmt.pipeline import PipelineResult
from .classifier import (
    ClassifierStats,
    CompiledClassifier,
    Fallback,
    compile_classifier,
)
from .flow_cache import FlowCache, FlowCacheStats, FlowEntry

if TYPE_CHECKING:  # pragma: no cover — type-only; engine never imports
    from ..analysis.equiv import Certificate  # analysis eagerly

#: Certification modes for ``BatchEngine(check_compiled=...)``,
#: strictest first (mirrors the admission gate's VERIFY_MODES).
CERTIFY_MODES = ("enforce", "warn", "off")

#: Every reason the classifier level can hand a packet back to the
#: scalar oracle (the keys of ``EngineCounters.classifier_fallbacks``).
FALLBACK_REASONS = ("stateful", "unsupported-action", "uncompilable",
                    "parse-window", "uncertified")


@dataclass
class EngineTenantCounters:
    """One tenant's slice of the engine counters."""

    packets: int = 0
    cache_hits: int = 0
    compiled_hits: int = 0
    cache_misses: int = 0
    uncacheable: int = 0
    drops: int = 0
    bytes_out: int = 0
    compile_rebuilds: int = 0


@dataclass
class EngineCounters:
    """Engine-level accounting, overall and per tenant.

    Counter-unit contract: ``invalidations`` counts flushed cache
    *entries* (same unit as ``FlowCacheStats.invalidations``) and
    ``invalidation_calls`` counts :meth:`BatchEngine.invalidate` *calls*
    — a call that finds nothing to flush bumps only the latter.
    ``cache_hits``/``compiled_hits`` attribute each served packet to the
    hot-path level that produced its result; ``classifier_fallbacks``
    histograms (by reason) the packets the classifier handed back to the
    scalar pipeline. ``compile_rebuilds`` is the sum of the per-tenant
    ``compile_rebuilds`` — a tenant's count moves only when its own
    configuration epoch did.

    Aggregation (:meth:`merge_from` / :meth:`delta_since`) is
    introspected from the dataclass fields by :mod:`repro.core.stats`'s
    generic counter algebra — the benchmark (``perf/workloads.py``)
    accounts each pass as a delta since a snapshot — and guaranteed by
    construction never to drop a newly added counter.
    """

    batches: int = 0
    packets: int = 0
    cache_hits: int = 0
    compiled_hits: int = 0
    cache_misses: int = 0
    uncacheable: int = 0
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


class _ModuleLayout:
    """Decoded parse/deparse geometry of one module at one epoch.

    ``regions`` are the (offset, size) byte ranges the module's parse
    program reads — the complete packet-derived input of its execution
    (besides length and ingress port, which the key carries separately).
    ``deparse`` are the ranges its deparse program writes back.
    ``stateful`` flips once a packet of this module touches stateful
    memory; the shard then bypasses the cache until the epoch moves.
    """

    __slots__ = ("epoch", "regions", "deparse", "max_end", "stateful")

    def __init__(self, epoch: int, regions: Tuple[Tuple[int, int], ...],
                 deparse: Tuple[Tuple[int, int], ...]):
        self.epoch = epoch
        self.regions = regions
        self.deparse = deparse
        ends = [off + size for off, size in regions]
        ends += [off + size for off, size in deparse]
        self.max_end = max(ends, default=0)
        self.stateful = False


class BatchEngine:
    """High-throughput batched executor over one Menshen pipeline."""

    def __init__(self, pipeline: MenshenPipeline,
                 cache_capacity: int = 4096,
                 enable_cache: bool = True,
                 enable_classifier: bool = True,
                 check_compiled: str = "off"):
        """``check_compiled`` selects the certification mode for the
        compiled-classification level: every lazy rebuild is certified
        against the installed tables by
        :func:`repro.analysis.equiv.certify_classifier`. ``enforce``
        refuses the compiled path on a violated certificate (packets
        fall back to the scalar oracle, counted under ``uncertified``);
        ``warn`` emits an ``AnalysisWarning`` instead; ``off`` (the
        default) skips certification.
        """
        if not isinstance(pipeline, MenshenPipeline):
            raise TypeError(
                f"BatchEngine drives a MenshenPipeline, got "
                f"{type(pipeline).__name__}")
        self.pipeline = pipeline
        self.cache_capacity = cache_capacity
        self.enable_cache = enable_cache
        self.enable_classifier = enable_classifier
        if check_compiled not in CERTIFY_MODES:
            raise ValueError(
                f"unknown check_compiled mode {check_compiled!r}; "
                f"expected one of {CERTIFY_MODES}")
        self.check_compiled = check_compiled
        self.counters = EngineCounters()
        self.certificates: Dict[int, "Certificate"] = {}
        self._refused: Dict[int, bool] = {}
        self._shards: Dict[int, FlowCache] = {}
        self._layouts: Dict[int, _ModuleLayout] = {}
        self._classifiers: Dict[int, CompiledClassifier] = {}

    # -- cache management -------------------------------------------------------

    def shard(self, vid: int) -> FlowCache:
        """The flow-cache shard for one tenant VID (created on demand)."""
        cache = self._shards.get(vid)
        if cache is None:
            cache = self._shards[vid] = FlowCache(self.cache_capacity)
        return cache

    def cache_stats(self) -> Dict[int, FlowCacheStats]:
        """Per-VID cache statistics."""
        return {vid: cache.stats for vid, cache in self._shards.items()}

    def invalidate(self, vid: Optional[int] = None) -> int:
        """Flush cached flows (one tenant's shard, or everything).

        ``repro.api`` calls this when a tenant commits a transaction, is
        updated, or is evicted — making invalidation transactional at the
        API layer. The epoch check makes stale entries unreachable even
        without this call; flushing additionally frees their memory,
        their layouts, and their compiled classifiers immediately.

        ``counters.invalidations`` grows by the number of entries
        actually flushed (matching ``FlowCacheStats.invalidations``);
        ``counters.invalidation_calls`` grows by one per call.
        """
        flushed = 0
        if vid is None:
            for cache in self._shards.values():
                flushed += cache.clear()
            self._layouts.clear()
            self._classifiers.clear()
            self.certificates.clear()
            self._refused.clear()
        else:
            if vid in self._shards:
                flushed = self._shards[vid].clear()
            self._layouts.pop(vid, None)
            self._classifiers.pop(vid, None)
            self.certificates.pop(vid, None)
            self._refused.pop(vid, None)
        self.counters.invalidation_calls += 1
        self.counters.invalidations += flushed
        return flushed

    def classifier_stats(self) -> Dict[int, ClassifierStats]:
        """Shape summaries of the currently compiled classifiers."""
        return {vid: clf.stats() for vid, clf in self._classifiers.items()}

    def _classifier(self, vid: int, epoch: int) -> CompiledClassifier:
        clf = self._classifiers.get(vid)
        if clf is None or clf.epoch != epoch:
            clf = compile_classifier(self.pipeline, vid)
            self._classifiers[vid] = clf
            self.counters.compile_rebuilds += 1
            self.counters.tenant(vid).compile_rebuilds += 1
            if self.check_compiled != "off":
                self._certify(vid, clf)
        return clf

    def _certify(self, vid: int, clf: CompiledClassifier) -> None:
        # Lazy import: the engine must stay importable without dragging
        # the analysis layer in — only certifying engines pay for it.
        from ..analysis.equiv import certify_classifier

        certificate = certify_classifier(self.pipeline, clf, vid=vid)
        self.certificates[vid] = certificate
        if certificate.ok:
            self._refused.pop(vid, None)
            return
        if self.check_compiled == "enforce":
            self._refused[vid] = True
        elif self.check_compiled == "warn":
            from ..analysis.verify import AnalysisWarning

            warnings.warn(
                AnalysisWarning(
                    f"compiled classifier for vid {vid} failed "
                    f"certification:\n{certificate.render()}"),
                stacklevel=3)

    def _count_fallback(self, reason: str) -> None:
        fallbacks = self.counters.classifier_fallbacks
        fallbacks[reason] = fallbacks.get(reason, 0) + 1

    def _layout(self, vid: int, epoch: int) -> _ModuleLayout:
        layout = self._layouts.get(vid)
        if layout is None or layout.epoch != epoch:
            parse = self.pipeline.parser.read_program(vid)
            deparse = self.pipeline.deparser.read_program(vid)
            regions = tuple(sorted({(a.bytes_from_head,
                                     a.container.size_bytes)
                                    for a in parse}))
            writes = tuple((a.bytes_from_head, a.container.size_bytes)
                           for a in deparse)
            layout = _ModuleLayout(epoch, regions, writes)
            self._layouts[vid] = layout
        return layout

    def _stateful_ops(self) -> int:
        return sum(stage.stateful_memory.op_count
                   for stage in self.pipeline.stages)

    # -- data plane ---------------------------------------------------------------

    def process(self, packet: Packet) -> PipelineResult:
        """Single-packet convenience wrapper around :meth:`process_batch`."""
        return self.process_batch([packet])[0]

    def process_batch(self, packets: Sequence[Packet]
                      ) -> List[PipelineResult]:
        """Process a batch; results are in submission order.

        Reconfiguration packets act as barriers: pending shards flush
        before the configuration write is delivered.
        """
        self.counters.batches += 1
        self.counters.packets += len(packets)
        results: List[Optional[PipelineResult]] = [None] * len(packets)
        run: List[int] = []
        is_reconfig = self.pipeline.packet_filter.is_reconfig_packet
        for i, packet in enumerate(packets):
            if is_reconfig(packet):
                self._flush(run, packets, results)
                run = []
                self.counters.reconfig_flushes += 1
                early, _vid = self.pipeline.admit(packet)
                results[i] = early
            else:
                run.append(i)
        self._flush(run, packets, results)
        return results  # type: ignore[return-value]

    # -- the three phases -------------------------------------------------------

    def _flush(self, run: List[int], packets: Sequence[Packet],
               results: List[Optional[PipelineResult]]) -> None:
        """Admit (in order) -> execute (per shard) -> commit (in order)."""
        if not run:
            return
        pipeline = self.pipeline
        assign_buffer = pipeline.packet_filter.assign_buffer

        shards: Dict[int, List[Tuple[int, Packet, int]]] = {}
        for i in run:
            packet = packets[i]
            early, vid = pipeline.admit(packet)
            if early is not None:
                results[i] = early
                self.counters.early_drops += 1
                if vid:
                    tenant = self.counters.tenant(vid)
                    tenant.packets += 1
                    tenant.drops += 1
                continue
            shards.setdefault(vid, []).append((i, packet, assign_buffer()))

        executed: Dict[int, Tuple[Optional[Packet], object, int, bool]] = {}
        for vid, items in shards.items():
            cache = self.shard(vid)
            for i, packet, slot in items:
                executed[i] = self._execute_one(vid, cache, packet, slot)

        for i in run:
            if results[i] is not None:
                continue
            merged, phv, vid, hit = executed[i]
            result = pipeline.commit(merged, phv, vid, cache_hit=hit)
            results[i] = result
            tenant = self.counters.tenant(vid)
            tenant.packets += 1
            if result.forwarded:
                tenant.bytes_out += len(result.packet)
            else:
                tenant.drops += 1
                self.counters.drops += 1

    def _execute_one(self, vid: int, cache: FlowCache, packet: Packet,
                     slot: int) -> Tuple[Optional[Packet], object, int, bool]:
        """Serve one admitted packet: cache hit -> compiled -> scalar."""
        pipeline = self.pipeline
        epoch = pipeline.epoch_of(vid)
        key = None
        layout = None
        fits_window = False
        if self.enable_cache or self.enable_classifier:
            layout = self._layout(vid, epoch)
            window = min(len(packet), pipeline.params.parse_window_bytes)
            fits_window = layout.max_end <= window

        # Level 1: exact-match flow-cache hit.
        if self.enable_cache and fits_window and not layout.stateful:
            key = (len(packet), packet.ingress_port,
                   *(packet.read_bytes(off, size)
                     for off, size in layout.regions))
            entry = cache.lookup(key, epoch)
            if entry is not None:
                self.counters.cache_hits += 1
                self.counters.tenant(vid).cache_hits += 1
                phv = entry.phv.copy()
                phv.metadata.buffer_tag = 1 << slot
                if entry.dropped:
                    return (None, phv, vid, True)
                merged = packet.copy()
                for off, data in entry.writes:
                    merged.write_bytes(off, data)
                return (merged, phv, vid, True)

        # Level 2: compiled classification (flow cache v2).
        if self.enable_classifier:
            if fits_window:
                clf = self._classifier(vid, epoch)
                if self._refused.get(vid):
                    # Certification (enforce mode) found the compiled
                    # artifact inequivalent: refuse the compiled path
                    # entirely and let the scalar oracle serve.
                    self._count_fallback("uncertified")
                elif clf.ok:
                    outcome = clf.classify(packet, slot)
                    if type(outcome) is Fallback:
                        self._count_fallback(outcome.reason)
                    else:
                        merged, phv = outcome
                        self.counters.compiled_hits += 1
                        tenant = self.counters.tenant(vid)
                        tenant.compiled_hits += 1
                        if key is not None:
                            # Seed the exact-match level: the compiled
                            # result is pure by construction, exactly
                            # what the scalar miss path would memoize.
                            self.counters.cache_misses += 1
                            tenant.cache_misses += 1
                            if merged is None:
                                writes: Tuple[Tuple[int, bytes], ...] = ()
                            else:
                                writes = tuple(
                                    (off, merged.read_bytes(off, size))
                                    for off, size in layout.deparse)
                            cache.insert(key, FlowEntry(
                                epoch=epoch, phv=phv.copy(), writes=writes,
                                dropped=merged is None))
                        return (merged, phv, vid, False)
                else:
                    self._count_fallback("uncompilable")
            else:
                self._count_fallback("parse-window")

        # Level 3: the scalar pipeline walk (the differential oracle).
        before = self._stateful_ops()
        merged, phv = pipeline.execute(packet, vid, buffer_slot=slot)
        pure = self._stateful_ops() == before

        if key is not None and pure:
            self.counters.cache_misses += 1
            self.counters.tenant(vid).cache_misses += 1
            if merged is None:
                writes: Tuple[Tuple[int, bytes], ...] = ()
            else:
                writes = tuple((off, merged.read_bytes(off, size))
                               for off, size in layout.deparse)
            cache.insert(key, FlowEntry(epoch=epoch, phv=phv.copy(),
                                        writes=writes,
                                        dropped=merged is None))
        elif not pure:
            self.counters.uncacheable += 1
            self.counters.tenant(vid).uncacheable += 1
            if layout is not None:
                layout.stateful = True
        return (merged, phv, vid, False)
