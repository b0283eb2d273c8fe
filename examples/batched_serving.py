#!/usr/bin/env python3
"""Batched serving: the engine + workload subsystem end-to-end.

Serves zipf-distributed flow traffic from two tenants through the
batched execution engine (`repro.engine`), showing:

* batched dispatch and per-tenant engine counters,
* the flow cache turning skewed traffic into mostly cache hits,
* transactional invalidation — a `tenant.transaction()` commit flushes
  the tenant's cached flows, so the very next packet observes the new
  rules (never a stale cached verdict).

Run:  python examples/batched_serving.py
"""

import random
import time

from repro.api import Switch
from repro.traffic import TraceReplayer, ZipfFlows, flow_stream, workload


def main() -> None:
    switch = Switch.build().create()
    fw_spec, qos_spec = workload("firewall"), workload("qos")
    fw = fw_spec.admit(switch, vid=1)
    qos_spec.admit(switch, vid=2)
    engine = switch.engine(cache_capacity=1024)

    # -- skewed flow traffic, interleaved across the two tenants ---------
    rng = random.Random(42)
    pkts = []
    for fw_pkt, qos_pkt in zip(
            flow_stream(fw_spec, 1, rng, 2000, ZipfFlows(256, skew=0.99)),
            flow_stream(qos_spec, 2, rng, 2000, ZipfFlows(64, skew=0.9))):
        pkts.extend((fw_pkt, qos_pkt))

    start = time.perf_counter()
    results = TraceReplayer(pkts).replay(engine, batch_size=256)
    elapsed = time.perf_counter() - start

    forwarded = sum(r.forwarded for r in results)
    print(f"served {len(results)} packets in {elapsed * 1e3:.1f} ms "
          f"({len(results) / elapsed:,.0f} pps), {forwarded} forwarded")
    print(f"flow cache: {engine.counters.cache_hits} hits / "
          f"{engine.counters.cache_misses} misses "
          f"(hit rate {engine.counters.hit_rate:.1%})")
    for vid, c in sorted(engine.counters.per_tenant.items()):
        print(f"  tenant {vid}: {c.packets} pkts, {c.cache_hits} hits, "
              f"{c.drops} drops, {c.bytes_out} bytes out")

    # -- transactional invalidation --------------------------------------
    probe = fw_spec.flow_packet(1, 1)          # flow 1 is allowed -> port 2
    before = engine.process(probe.copy())
    assert before.cache_hit and before.egress_port == 2
    acl = fw.table("acl")
    with fw.transaction() as txn:
        for handle in acl.handles():
            txn.table("acl").delete(handle)    # drop every ACL rule
    after = engine.process(probe.copy())
    print(f"\nafter transactional rule wipe: cache_hit={after.cache_hit}, "
          f"egress {before.egress_port} -> {after.egress_port} (default)")
    assert not after.cache_hit and after.egress_port == 0


if __name__ == "__main__":
    main()
