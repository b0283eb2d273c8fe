"""Fabric-level bandwidth isolation: spine-link aggressor vs victim.

The multi-switch version of the §3.5 starvation scenario: two tenants
share the leaf0→spine0 uplink of a 2-leaf/1-spine fabric on their way
to hosts on leaf1. The aggressor offers 8x the victim's packet count;
the weighted-fair egress scheduler on the shared uplink must hold the
victim's spine-link share within 10% of its configured weight share —
cross-rack flows must not be starved by a co-located elephant.

Gates:

* **share gate** — victim bytes on the contended uplink, measured
  while both tenants stay backlogged (``drain_bytes`` with a budget),
  within ``SHARE_TOLERANCE`` of ``weight / total_weight``;
* **delivery gate** — on the fabric timeline, with the aggressor
  oversubscribing the uplink, every offered packet of both tenants
  exits on leaf1 (weighted fairness schedules, it never drops).
"""

from __future__ import annotations

from conftest import report
from repro.fabric import leaf_spine
from repro.modules import calc
from repro.sim import FabricTimelineExperiment
from repro.traffic import TrafficMatrix

WEIGHTS = {1: 3.0, 2: 1.0}   #: vid 1 = victim, vid 2 = aggressor
AGGRESSOR_FACTOR = 8         #: aggressor offers 8x the victim's packets
SHARE_TOLERANCE = 0.10
PACKET_SIZE = 1000
HOSTS = 4
UPLINK = HOSTS               #: leaf0's port toward the single spine
#: Victim packets per second on the timeline: with the aggressor's 8x,
#: about 18 Gb/s offered into the 10 Gb/s uplink.
VICTIM_PPS = 2.5e5


def _build():
    fabric = leaf_spine(leaves=2, spines=1, hosts_per_leaf=HOSTS,
                        link_capacity_bps=10e9, link_delay_s=1e-6)
    tenants = {}
    for vid, weight in WEIGHTS.items():
        tenant = fabric.tenant(
            f"calc{vid}", calc.P4_SOURCE, vid=vid,
            installer=lambda t, port: calc.install(t, port=port))
        tenant.place(("leaf0", vid - 1), ("leaf1", vid - 1))
        tenant.set_weight(weight)
        tenants[vid] = tenant
    return fabric, tenants


def _packet(vid: int, i: int):
    return calc.make_packet(vid, calc.OP_ADD, i, i + 1,
                            pad_to=PACKET_SIZE)


def _timeline(fabric, rounds: int) -> FabricTimelineExperiment:
    """A run offering ``rounds`` victim packets and
    ``AGGRESSOR_FACTOR`` times as many aggressor packets."""
    matrix = TrafficMatrix()
    for vid, pps in ((1, VICTIM_PPS), (2, AGGRESSOR_FACTOR * VICTIM_PPS)):
        matrix.add(vid, ("leaf0", vid - 1), ("leaf1", vid - 1),
                   offered_bps=pps * (PACKET_SIZE + 24) * 8,
                   packet_size=PACKET_SIZE,
                   make_packet=lambda vid=vid: _packet(vid, 0))
    return FabricTimelineExperiment(fabric, matrix,
                                    duration_s=rounds / VICTIM_PPS)


def _offered(rounds: int):
    """Interleaved: each round = 1 victim + AGGRESSOR_FACTOR packets."""
    pkts = []
    for i in range(rounds):
        pkts.append(_packet(1, i))
        for j in range(AGGRESSOR_FACTOR):
            pkts.append(_packet(2, i * AGGRESSOR_FACTOR + j))
    return pkts


def test_victim_spine_share_holds(benchmark):
    fabric, tenants = _build()
    rounds = 300
    pkts = _offered(rounds)

    # Fill the contended uplink: process the whole offered load at
    # leaf0, then serve the spine link while both tenants stay
    # backlogged (victim holds `rounds` packets; its weighted share of
    # the budget is weight/total of it, so a budget of rounds*size
    # keeps everyone backlogged throughout the measurement).
    leaf0 = fabric.switch("leaf0")
    results = leaf0.engine.process_batch(pkts)
    assert all(r.forwarded for r in results)
    served = leaf0.scheduler.drain_bytes(UPLINK, rounds * PACKET_SIZE)

    total = sum(served.values())
    total_weight = sum(WEIGHTS.values())
    rows = []
    ok = True
    for vid in sorted(WEIGHTS):
        expected = WEIGHTS[vid] / total_weight
        achieved = served.get(vid, 0) / total
        within = abs(achieved - expected) <= SHARE_TOLERANCE
        ok = ok and within
        rows.append({"tenant": "victim" if vid == 1 else "aggressor",
                     "weight": WEIGHTS[vid],
                     "offered_pkts": rounds * (1 if vid == 1
                                               else AGGRESSOR_FACTOR),
                     "expected_share": round(expected, 3),
                     "achieved_share": round(achieved, 3),
                     "within_10pct": within})
    report("fabric_isolation",
           "Fabric isolation: spine-link shares under an 8x aggressor",
           rows)
    assert ok, rows

    # A fabric timeline as the benchmark body: a fresh fabric serving
    # eight rounds end to end (leaf0 -> spine0 -> leaf1).
    bench_fabric, _ = _build()
    benchmark(_timeline(bench_fabric, rounds=8).run)


def test_all_cross_rack_flows_delivered():
    fabric, tenants = _build()
    rounds = 50
    result = _timeline(fabric, rounds).run()
    assert result.drops == {} and result.lost == {}
    assert result.delivered == {1: rounds, 2: rounds * AGGRESSOR_FACTOR}
    # every packet crossed the one spine, on the victim's weights
    spine_link = fabric.link_between("leaf0", "spine0")
    assert spine_link.bytes_by_tenant[1] == rounds * PACKET_SIZE
    assert spine_link.bytes_by_tenant[2] == \
        rounds * AGGRESSOR_FACTOR * PACKET_SIZE
