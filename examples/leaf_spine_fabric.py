#!/usr/bin/env python3
"""Leaf–spine fabric tour: tenants spanning switches, contending links.

Builds a 2-leaf / 1-spine fabric of Menshen switches (each a full RMT
pipeline with batched engine and weighted-fair egress), places two
tenants whose cross-rack flows share the leaf0→spine0 uplink, and runs
two experiments on the fabric timeline (a per-tenant traffic matrix
replayed on the event kernel):

1. **one packet per tenant** — each crosses leaf0, spine0 and leaf1,
   and the per-hop counters show it was served on all three;
2. **contention** — the aggressor offers 8x the victim's rate into the
   shared uplink, yielding end-to-end latency, delivered throughput,
   and link utilization.

Run:  python examples/leaf_spine_fabric.py
"""

from repro.fabric import leaf_spine
from repro.modules import calc
from repro.sim import FabricTimelineExperiment
from repro.traffic import TrafficMatrix


def main() -> None:
    # 1. The fabric: leaves with 4 host ports each, one spine,
    #    10 Gbit/s links, 1 us propagation delay per link.
    fabric = leaf_spine(leaves=2, spines=1, hosts_per_leaf=4,
                        link_capacity_bps=10e9, link_delay_s=1e-6)
    print("fabric:", ", ".join(str(m) for m in fabric.switches()))

    # 2. Two tenants, both leaf0 -> leaf1 (so they contend on the
    #    spine uplink). Placement admits each tenant's P4 program on
    #    every switch along its route and installs entries steering to
    #    that switch's next hop — same VID end to end (VLAN-based
    #    inter-switch forwarding).
    victim = fabric.tenant(
        "victim", calc.P4_SOURCE, vid=1,
        installer=lambda t, port: calc.install(t, port=port))
    aggressor = fabric.tenant(
        "aggressor", calc.P4_SOURCE, vid=2,
        installer=lambda t, port: calc.install(t, port=port))
    print("victim route:   ", victim.place(("leaf0", 0), ("leaf1", 0)))
    print("aggressor route:", aggressor.place(("leaf0", 1), ("leaf1", 1)))
    victim.set_weight(3.0)       # 3x fair share on every contended port
    aggressor.set_weight(1.0)

    # 3. One packet per tenant: each enters at a leaf0 host port,
    #    crosses the spine, and exits at a leaf1 host port — one
    #    pipeline pass per switch on the way.
    probe = TrafficMatrix()
    probe.add(1, ("leaf0", 0), ("leaf1", 0), offered_bps=1e9,
              packet_size=1000,
              make_packet=lambda: calc.make_packet(1, calc.OP_ADD, 40, 2))
    probe.add(2, ("leaf0", 1), ("leaf1", 1), offered_bps=1e9,
              packet_size=1000,
              make_packet=lambda: calc.make_packet(2, calc.OP_SUB, 50, 8))
    run = FabricTimelineExperiment(fabric, probe, duration_s=8e-6).run()
    for vid, tenant in ((1, victim), (2, aggressor)):
        print(f"  vid {vid}: delivered {run.delivered[vid]}, "
              f"e2e latency {run.mean_latency_s(vid) * 1e6:.2f} us, "
              f"served on {tenant.counters().packets_in} switches")

    # 4. The timed experiment: the aggressor offers 8x the victim's
    #    rate into the shared 10G uplink; the weighted-fair scheduler
    #    holds the victim's share.
    matrix = TrafficMatrix()
    matrix.add(1, ("leaf0", 0), ("leaf1", 0), offered_bps=8e9,
               packet_size=1000,
               make_packet=lambda: calc.make_packet(
                   1, calc.OP_ADD, 1, 2, pad_to=1000))
    matrix.add(2, ("leaf0", 1), ("leaf1", 1), offered_bps=64e9,
               packet_size=1000,
               make_packet=lambda: calc.make_packet(
                   2, calc.OP_SUB, 9, 4, pad_to=1000))
    run = FabricTimelineExperiment(fabric, matrix,
                                   duration_s=0.0004).run()
    for vid, name in ((1, "victim"), (2, "aggressor")):
        print(f"  {name}: offered {run.offered_gbps[vid]:.1f} Gbps, "
              f"delivered {run.delivered_gbps(vid):.2f} Gbps, "
              f"mean e2e latency "
              f"{run.mean_latency_s(vid) * 1e6:.1f} us")
    for link, (nbytes, util) in sorted(run.link_utilization.items()):
        print(f"  link {link}: {nbytes} B carried, "
              f"{util:.0%} utilized")


if __name__ == "__main__":
    main()
