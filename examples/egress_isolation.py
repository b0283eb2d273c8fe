#!/usr/bin/env python3
"""Egress isolation: weighted-fair scheduling + rate limiting (§3.5).

One bursty "elephant" tenant floods the switch while three mice send
steadily. Behind a per-port FIFO the elephant's backlog would drain
first and the mice starve; every switch queues egress in a PIFO/STFQ
scheduler (`switch.egress_scheduler`), so each tenant's share of the
output link follows its configured weight — and a token-bucket rate
limit can cap the elephant outright.

Run:  python examples/egress_isolation.py
"""

from repro.api import Switch
from repro.modules import calc

WEIGHTS = {1: 1.0, 2: 1.0, 3: 2.0, 4: 4.0}
PORT = 1


def offered(rounds):
    """8 elephant packets + one per mouse, per round."""
    pkts = []
    for i in range(rounds):
        pkts += [calc.make_packet(1, calc.OP_ADD, i, j, pad_to=1000)
                 for j in range(8)]
        pkts += [calc.make_packet(vid, calc.OP_ADD, i, i, pad_to=1000)
                 for vid in (2, 3, 4)]
    return pkts


def main() -> None:
    switch = Switch.build().create()
    for vid, weight in WEIGHTS.items():
        tenant = switch.admit(f"tenant{vid}", calc.P4_SOURCE, vid=vid)
        calc.install(tenant, port=PORT)
        tenant.set_weight(weight)

    engine = switch.engine()          # commits into the egress scheduler
    engine.process_batch(offered(rounds=200))

    scheduler = switch.egress_scheduler
    print("queued per tenant:",
          {vid: scheduler.queue_depth(vid) for vid in WEIGHTS})

    # Serve a contended slice of the link and compare achieved shares
    # with the configured weights.
    served = scheduler.drain_bytes(PORT, budget_bytes=200 * 1000)
    total = sum(served.values())
    total_weight = sum(WEIGHTS.values())
    print("\nweighted-fair shares under an 8x elephant (tenant 1):")
    for vid in sorted(WEIGHTS):
        print(f"  tenant {vid}: weight {WEIGHTS[vid]:.0f} -> "
              f"share {served.get(vid, 0) / total:5.1%} "
              f"(target {WEIGHTS[vid] / total_weight:5.1%})")

    # Rate-limit the elephant to 10% of a 1 Gbit/s link and watch the
    # token bucket cap it while the mice absorb the slack.
    scheduler.line_rate_bps = 1e9
    switch.tenant(1).set_rate_limit(12_500_000, burst_bytes=3000)
    engine.process_batch(offered(rounds=200))
    horizon, start = 0.02, scheduler.clock
    by_vid = {}
    for dep in scheduler.advance_to(start + horizon):
        by_vid[dep.module_id] = by_vid.get(dep.module_id, 0) + len(dep.packet)
    print("\nwith tenant 1 rate-limited to 100 Mbit/s:")
    for vid in sorted(WEIGHTS):
        mbps = by_vid.get(vid, 0) * 8 / horizon / 1e6
        print(f"  tenant {vid}: {mbps:6.1f} Mbit/s")

    stats = switch.tenant(1).counters()
    print(f"\ntenant 1 counters: egress_bytes_tx={stats.egress_bytes_tx}, "
          f"egress_queue_depth={stats.egress_queue_depth}")


if __name__ == "__main__":
    main()
