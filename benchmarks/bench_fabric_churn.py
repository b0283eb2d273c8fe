"""Fabric-scale reconfiguration disruption: Fig. 10 across a Clos.

The paper's headline isolation property — reconfiguring one tenant
does not disturb the others — demonstrated on a 3-leaf/1-spine fabric
under *live churn*: mid-run, one tenant's program is replaced in place
(:meth:`~repro.fabric.tenant.FabricTenant.update`, the §4.1 procedure
fanned out across its route) and another tenant is *migrated* to a
different leaf (:meth:`~repro.fabric.tenant.FabricTenant.migrate`:
admit on the new leaf, re-steer the shared spine, evict the abandoned
leaf), both firing inside the running event-driven timeline via
:class:`repro.sim.FabricReconfigEvent`.

Gates:

* **isolation gate** — every *untouched* tenant's per-bin delivered
  throughput stays within ``TOLERANCE`` (5%) of its steady-state share
  in every bin overlapping the churn windows;
* **disruption gate** — the churned tenants *do* drop packets during
  their own §4.1 windows (the experiment is not vacuous) and recover
  to their steady share afterwards;
* **migration gate** — the migrated tenant's traffic exits on the new
  leaf after the move, and the abandoned leaf's module slot is
  released;
* **host-cost gate** — Fig. 10 in host work rather than simulated
  time: on every switch, each untouched tenant's classifier rebuilds,
  flow-cache invalidations and per-packet hit/miss sequence equal the
  churn-free control run exactly (counts, no timing) — a neighbour's
  update or migration costs it nothing.
"""

from __future__ import annotations

from conftest import report
from repro.fabric import leaf_spine
from repro.modules import calc
from repro.sim import FabricTimelineExperiment
from repro.traffic import ChurnSchedule, TrafficMatrix

HOSTS = 4
PACKET_SIZE = 500
PPS = 5e4                  #: per tenant — 50 packets per bin
DURATION_S = 20e-3
BIN_S = 1e-3
TOLERANCE = 0.05

UPDATED_VID = 3            #: live program update at UPDATE_AT
MIGRATED_VID = 4           #: leaf1 -> leaf2 migration at MIGRATE_AT
UPDATE_AT = 8e-3
MIGRATE_AT = 12e-3
WINDOW_S = 1e-3            #: §4.1 window held per churn action
UNTOUCHED = (1, 2)


def _build():
    fabric = leaf_spine(leaves=3, spines=1, hosts_per_leaf=HOSTS)
    tenants = {}
    for vid in (1, 2, UPDATED_VID, MIGRATED_VID):
        tenant = fabric.tenant(
            f"calc{vid}", calc.P4_SOURCE, vid=vid,
            installer=lambda t, port: calc.install(t, port=port))
        tenant.place(("leaf0", vid - 1), ("leaf1", vid - 1))
        tenant.set_weight(1.0)
        tenants[vid] = tenant
    return fabric, tenants


def _matrix(vids):
    matrix = TrafficMatrix()
    for vid in vids:
        matrix.add(vid, ("leaf0", vid - 1), ("leaf1", vid - 1),
                   offered_bps=PPS * (PACKET_SIZE + 24) * 8,
                   packet_size=PACKET_SIZE,
                   make_packet=lambda vid=vid: calc.make_packet(
                       vid, calc.OP_ADD, vid, vid + 1,
                       pad_to=PACKET_SIZE))
    return matrix


def _steady_reference(result, vid, spans):
    """Mean per-bin throughput outside every churn span and away from
    the run's edge bins (arrival phase / drain tail)."""
    bins = []
    for b, t in zip(result.bins, result.throughput_gbps[vid]):
        if b <= result.bins[0] or b + result.bin_s > DURATION_S:
            continue
        if any(lo <= b + result.bin_s and b <= hi for lo, hi in spans):
            continue
        bins.append(t)
    assert bins, f"no steady bins for tenant {vid}"
    return sum(bins) / len(bins)


def _run(churn, observe=None):
    """One timeline run, with or without the update + migration;
    ``observe(fabric)`` may hook the freshly built fabric first."""
    fabric, tenants = _build()
    if observe is not None:
        observe(fabric)
    experiment = FabricTimelineExperiment(
        fabric, _matrix([1, 2, UPDATED_VID, MIGRATED_VID]),
        duration_s=DURATION_S, bin_s=BIN_S)
    if churn:
        schedule = ChurnSchedule()
        schedule.update(UPDATED_VID, at_s=UPDATE_AT, duration_s=WINDOW_S)
        schedule.migrate(MIGRATED_VID, at_s=MIGRATE_AT,
                         duration_s=WINDOW_S)

        def apply(event):
            if event.kind == "update":
                tenants[event.vid].update(calc.P4_SOURCE)
            elif event.kind == "migrate":
                tenants[event.vid].migrate(dst=("leaf2", event.vid - 1))

        experiment.schedule_churn(schedule, apply)
    return fabric, tenants, experiment.run()


def test_fabric_churn_isolation():
    fabric, tenants, result = _run(churn=True)

    spans = [(UPDATE_AT, UPDATE_AT + WINDOW_S),
             (MIGRATE_AT, MIGRATE_AT + WINDOW_S)]
    rows = []
    ok = True

    # Isolation gate: untouched tenants hold their share in every bin
    # overlapping a neighbor's churn.
    for vid in UNTOUCHED:
        steady = _steady_reference(result, vid, spans)
        churn_bins = [
            t for b, t in zip(result.bins, result.throughput_gbps[vid])
            if any(lo <= b + BIN_S and b <= hi for lo, hi in spans)]
        worst = max(abs(t - steady) / steady for t in churn_bins)
        within = worst <= TOLERANCE
        ok = ok and within
        rows.append({"tenant": vid, "role": "untouched",
                     "steady_gbps": round(steady, 4),
                     "worst_bin_dev": round(worst, 4),
                     "drops": result.drops.get(vid, 0),
                     "within_5pct": within})

    # Disruption gate: the churned tenants take their own §4.1 hit and
    # recover afterwards.
    for vid, (lo, hi) in ((UPDATED_VID, spans[0]),
                          (MIGRATED_VID, spans[1])):
        steady = _steady_reference(result, vid, spans)
        inside = result.throughput_inside(vid, (lo, hi))
        after = result.throughput_inside(
            vid, (hi + BIN_S, DURATION_S - BIN_S))
        dipped = min(inside) < steady * 0.9 if inside else False
        recovered = after and abs(after[-1] - steady) / steady \
            <= TOLERANCE
        ok = ok and dipped and recovered \
            and result.drops.get(vid, 0) > 0
        rows.append({"tenant": vid,
                     "role": ("updated" if vid == UPDATED_VID
                              else "migrated"),
                     "steady_gbps": round(steady, 4),
                     "worst_bin_dev": round(
                         max(abs(t - steady) / steady
                             for t in inside), 4) if inside else "-",
                     "drops": result.drops.get(vid, 0),
                     "within_5pct": "(disrupted by design)"})

    report("fabric_churn",
           "Fabric churn: per-bin shares under live update + migration",
           rows)
    assert ok, rows

    # Migration gate: traffic lands on the new leaf — one packet after
    # the run crosses leaf0's and leaf2's links and nothing else.
    assert tenants[MIGRATED_VID].switches() == \
        ["leaf0", "spine0", "leaf2"]
    follow_up = FabricTimelineExperiment(
        fabric, _matrix([MIGRATED_VID]), duration_s=1 / PPS).run()
    assert follow_up.delivered == {MIGRATED_VID: 1}
    assert {link: nbytes for link, (nbytes, _util)
            in follow_up.link_utilization.items() if nbytes} == \
        {fabric.link_between(leaf, "spine0").name: PACKET_SIZE
         for leaf in ("leaf0", "leaf2")}
    assert result.lost_records() == []  # churn, not link failure


def test_churn_free_baseline_is_steady_everywhere():
    """Control: without churn, every tenant holds its share in every
    interior bin — the gate's tolerance is not hiding noise."""
    _fabric, _tenants, result = _run(churn=False)
    for vid in (1, 2, 3, 4):
        steady = _steady_reference(result, vid, spans=[])
        interior = [
            t for b, t in zip(result.bins, result.throughput_gbps[vid])
            if result.bins[0] < b and b + BIN_S <= DURATION_S]
        assert max(abs(t - steady) / steady for t in interior) \
            <= TOLERANCE, (vid, steady, interior)
        assert result.drops.get(vid, 0) == 0


def _untouched_host_cost(churn):
    """Per (switch, untouched vid): classifier rebuilds, flow-cache
    invalidations, and the served-from-cache flag of every packet in
    serving order."""
    served = {}

    def observe(fabric):
        for member in fabric.switches():
            def spy(packets, name=member.name,
                    serve=member.engine.process_batch):
                results = serve(packets)
                for r in results:
                    if r.module_id in UNTOUCHED:
                        served.setdefault((name, r.module_id),
                                          []).append(r.cache_hit)
                return results
            member.engine.process_batch = spy

    fabric, _tenants, _result = _run(churn, observe)
    cost = {}
    for member in fabric.switches():
        engine = member.engine
        for vid in UNTOUCHED:
            cost[member.name, vid] = {
                "compile_rebuilds":
                    engine.counters.tenant(vid).compile_rebuilds,
                "invalidations": engine.shard(vid).stats.invalidations,
                "hit_sequence": served.get((member.name, vid), []),
            }
    return cost


def test_untouched_tenants_pay_no_host_cost_for_neighbour_churn():
    control = _untouched_host_cost(churn=False)
    churned = _untouched_host_cost(churn=True)
    rows = [{"switch": name, "tenant": vid,
             "packets": len(cost["hit_sequence"]),
             "compile_rebuilds": cost["compile_rebuilds"],
             "invalidations": cost["invalidations"],
             "equals_control": cost == control[name, vid]}
            for (name, vid), cost in sorted(churned.items())]
    report("fabric_churn_host_cost",
           "Fabric churn: untouched tenants' host-side work vs the "
           "churn-free control", rows)
    # Not vacuous: the untouched tenants were served on their route.
    assert sum(r["packets"] for r in rows) > 0
    assert all(r["compile_rebuilds"] == 1 for r in rows if r["packets"])
    assert churned == control, rows
