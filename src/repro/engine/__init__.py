"""Batched execution engine with per-tenant flow caching.

The scalar path (``pipeline.process`` / ``switch.process``) pushes one
packet at a time through parser, stages, and deparser. This package adds
the serving layer a production deployment needs:

* :class:`~repro.engine.batch.BatchEngine` — batched, flat-phase
  execution over an existing :class:`~repro.core.pipeline.MenshenPipeline`,
  packet-for-packet identical to the scalar path;
* :class:`~repro.engine.flow_cache.FlowCache` — exact-match memoization
  of the compiled classifier's results, emptied when the tenant's
  configuration epoch moves;
* :class:`~repro.engine.classifier.CompiledClassifier` — flow cache v2:
  each tenant's installed tables compiled into a hash (exact stages) or
  a first-match list (ternary stages) per stage, with pre-decoded
  actions, so exact-match *misses* (and ternary matches) also skip the
  interpreted pipeline walk;
* :class:`~repro.engine.scheduler.EgressScheduler` — weighted-fair
  (PIFO/STFQ) egress with per-tenant token-bucket rate limiting, the
  traffic manager every Menshen pipeline is built with (§3.5 bandwidth
  isolation);
* engine counters (hits, misses, drops, per-tenant throughput).

Quick start::

    switch = Switch.build().create()
    ...admit tenants, install entries...
    engine = switch.engine()            # or BatchEngine(switch.pipeline)
    results = engine.process_batch(packets)
    print(engine.counters.hit_rate)
"""

from .batch import (
    CERTIFY_MODES,
    FALLBACK_REASONS,
    BatchEngine,
    EngineCounters,
    EngineTenantCounters,
)
from .classifier import (
    ClassifierStats,
    CompiledClassifier,
    Fallback,
    compile_classifier,
)
from .flow_cache import FlowCache, FlowCacheStats, FlowEntry
from .scheduler import (
    Departure,
    EgressScheduler,
    TokenBucket,
)

__all__ = [
    "BatchEngine",
    "CERTIFY_MODES",
    "FALLBACK_REASONS",
    "EngineCounters",
    "EngineTenantCounters",
    "ClassifierStats",
    "CompiledClassifier",
    "Fallback",
    "compile_classifier",
    "FlowCache",
    "FlowCacheStats",
    "FlowEntry",
    "EgressScheduler",
    "TokenBucket",
    "Departure",
]
