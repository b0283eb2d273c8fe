"""Isolation under failure: a spine crash with controller recovery.

ROADMAP item 4's gate, the failure-mode sibling of
``bench_fabric_churn.py``: on a 2-leaf/2-spine Clos, two tenants are
pinned through ``spine1`` (untouched) and two through ``spine0``
(victims). Mid-run a :class:`repro.chaos.ChaosSchedule` crashes
``spine0``; a :class:`repro.chaos.RecoveryController` detects the
stranded victims after its detection delay and re-places them onto
``spine1`` via the live :meth:`~repro.fabric.tenant.FabricTenant.
migrate` machinery; later the schedule restores ``spine0``.

Gates:

* **loss gate** — victims lose *only* packets in flight on the dead
  capacity (every loss lands on a link the crash took down, inside the
  outage window), and the loss count reconciles exactly against the
  offered count and the per-tenant delivered/dropped counters;
* **recovery gate** — victims dip during the outage, are re-placed
  onto a surviving route (the post-mortem records the re-placements
  with the detection delay as recovery latency), and hold their steady
  share within ``TOLERANCE`` in every full bin after recovery;
* **isolation gate** — untouched tenants stay within ``TOLERANCE``
  (5%) of their steady share in *every* interior bin, crash or no
  crash;
* **restore gate** — after the run the restored spine is immediately
  usable: a fresh tenant placed through it forwards end to end.
"""

from __future__ import annotations

from conftest import report
from repro.chaos import ChaosController, ChaosSchedule, \
    RecoveryController
from repro.fabric import leaf_spine
from repro.modules import calc
from repro.sim import FabricTimelineExperiment
from repro.traffic import TrafficMatrix

HOSTS = 4
PACKET_SIZE = 500
PPS = 5e4                  #: per tenant — 50 packets per bin
DURATION_S = 24e-3
BIN_S = 1e-3
TOLERANCE = 0.05

UNTOUCHED = (1, 2)         #: pinned via spine1, must never deviate
VICTIMS = (3, 4)           #: pinned via spine0, crashed out from under
CRASH_AT = 8e-3
DETECTION_S = 2e-3         #: recovery sweep fires at CRASH_AT + this
RESTORE_AT = 16e-3


def _build():
    fabric = leaf_spine(leaves=2, spines=2, hosts_per_leaf=HOSTS)
    tenants = {}
    for vid in UNTOUCHED + VICTIMS:
        spine = "spine0" if vid in VICTIMS else "spine1"
        tenant = fabric.tenant(
            f"calc{vid}", calc.P4_SOURCE, vid=vid,
            installer=lambda t, port: calc.install(t, port=port))
        tenant.place(("leaf0", vid - 1), ("leaf1", vid - 1),
                     via=(spine,))
        tenant.set_weight(1.0)
        tenants[vid] = tenant
    return fabric, tenants


def _matrix():
    matrix = TrafficMatrix()
    for vid in UNTOUCHED + VICTIMS:
        matrix.add(vid, ("leaf0", vid - 1), ("leaf1", vid - 1),
                   offered_bps=PPS * (PACKET_SIZE + 24) * 8,
                   packet_size=PACKET_SIZE,
                   make_packet=lambda vid=vid: calc.make_packet(
                       vid, calc.OP_ADD, vid, vid + 1,
                       pad_to=PACKET_SIZE))
    return matrix


def _offered():
    counts = {}
    for _t, demand in _matrix().arrivals(DURATION_S):
        counts[demand.vid] = counts.get(demand.vid, 0) + 1
    return counts


def _steady_reference(result, vid, spans):
    """Mean per-bin throughput outside every disturbed span and away
    from the run's edge bins (arrival phase / drain tail)."""
    bins = []
    for b, t in zip(result.bins, result.throughput_gbps[vid]):
        if b <= result.bins[0] or b + result.bin_s > DURATION_S:
            continue
        if any(lo <= b + result.bin_s and b <= hi for lo, hi in spans):
            continue
        bins.append(t)
    assert bins, f"no steady bins for tenant {vid}"
    return sum(bins) / len(bins)


def test_fabric_chaos_crash_recovery():
    fabric, tenants = _build()
    schedule = ChaosSchedule()
    schedule.crash_switch("spine0", CRASH_AT)
    schedule.restore_switch("spine0", RESTORE_AT)
    controller = ChaosController(
        fabric, recovery=RecoveryController(
            fabric, detection_delay_s=DETECTION_S))

    experiment = FabricTimelineExperiment(
        fabric, _matrix(), duration_s=DURATION_S, bin_s=BIN_S)
    controller.arm(experiment, schedule)
    result = experiment.run()
    post_mortem = controller.post_mortem(result)

    recover_at = CRASH_AT + DETECTION_S
    outage = (CRASH_AT, recover_at)
    # The capacity the crash took down: spine0's links, plus the
    # pseudo-link packets in flight toward the dead switch charge.
    crash_event = schedule.faults()[0]
    dead_links = set(controller.affected_links(crash_event))
    offered = _offered()
    rows = []
    ok = True

    # Loss gate: victims lose only in-flight packets on dead capacity,
    # inside the outage, and the books balance exactly.
    for vid in VICTIMS:
        victim_links = {link for (v, link) in result.lost_by_link
                        if v == vid}
        on_dead = victim_links <= dead_links
        in_window = all(
            CRASH_AT <= t <= recover_at + BIN_S
            for t, v, _link in result.loss_log if v == vid)
        reconciled = offered[vid] == (
            result.delivered.get(vid, 0) + result.drops.get(vid, 0)
            + result.lost.get(vid, 0))
        ok = ok and on_dead and in_window and reconciled \
            and result.lost.get(vid, 0) > 0
    for vid in UNTOUCHED:
        ok = ok and result.lost.get(vid, 0) == 0

    # Recovery gate: victims dip during the outage, then hold steady
    # share in every full bin after the re-placement settles.
    for vid in VICTIMS:
        steady = _steady_reference(result, vid,
                                   spans=[(CRASH_AT, recover_at + BIN_S)])
        inside = result.throughput_inside(vid, outage)
        after = result.throughput_inside(
            vid, (recover_at + BIN_S, DURATION_S))
        dipped = bool(inside) and min(inside) < steady * 0.5
        recovered = bool(after) and max(
            abs(t - steady) / steady for t in after) <= TOLERANCE
        ok = ok and dipped and recovered
        rows.append({"tenant": vid, "role": "victim",
                     "steady_gbps": round(steady, 4),
                     "lost": result.lost.get(vid, 0),
                     "worst_bin_dev": "(outage by design)",
                     "recovered_within_5pct": recovered})

    # Isolation gate: untouched tenants never deviate, in any interior
    # bin — crash, recovery migration, and restore included.
    for vid in UNTOUCHED:
        steady = _steady_reference(result, vid, spans=[])
        interior = [
            t for b, t in zip(result.bins, result.throughput_gbps[vid])
            if result.bins[0] < b and b + BIN_S <= DURATION_S]
        worst = max(abs(t - steady) / steady for t in interior)
        within = worst <= TOLERANCE
        ok = ok and within
        rows.append({"tenant": vid, "role": "untouched",
                     "steady_gbps": round(steady, 4),
                     "lost": result.lost.get(vid, 0),
                     "worst_bin_dev": round(worst, 4),
                     "recovered_within_5pct": "(never disturbed)"})

    report("fabric_chaos",
           "Fabric chaos: spine crash, stranded-tenant recovery",
           rows)
    assert ok, rows

    # Post-mortem gate: the typed report tells the same story.
    assert post_mortem.victims() == list(VICTIMS)
    assert post_mortem.unattributed == ()
    assert post_mortem.total_lost() == sum(
        result.lost.get(vid, 0) for vid in VICTIMS)
    replaced = {rep.vid: rep for rep in post_mortem.replaced()}
    assert sorted(replaced) == list(VICTIMS)
    for rep in replaced.values():
        assert rep.recovered
        assert rep.new_route == ("leaf0", "spine1", "leaf1")
        assert abs(rep.recovery_latency_s - DETECTION_S) < 1e-12
        assert rep.state_lost == ("spine0",)  # registers died with it
    for vid in VICTIMS:
        assert tenants[vid].routes == [["leaf0", "spine1", "leaf1"]]

    # Restore gate: the rebooted spine is immediately usable by a
    # fresh placement — no stale route or link state survives.
    assert fabric.switch("spine0").up
    probe = fabric.tenant(
        "probe", calc.P4_SOURCE, vid=9,
        installer=lambda t, port: calc.install(t, port=port))
    assert probe.place(("leaf0", 0), ("leaf1", 0),
                       via=("spine0",)) == ["leaf0", "spine0", "leaf1"]
    probe_matrix = TrafficMatrix()
    probe_matrix.add(9, ("leaf0", 0), ("leaf1", 0),
                     offered_bps=PPS * (PACKET_SIZE + 24) * 8,
                     packet_size=PACKET_SIZE,
                     make_packet=lambda: calc.make_packet(
                         9, calc.OP_ADD, 1, 2, pad_to=PACKET_SIZE))
    follow_up = FabricTimelineExperiment(
        fabric, probe_matrix, duration_s=1 / PPS).run()
    assert follow_up.delivered == {9: 1}
    assert {link: nbytes for link, (nbytes, _util)
            in follow_up.link_utilization.items() if nbytes} == \
        {fabric.link_between(leaf, "spine0").name: PACKET_SIZE
         for leaf in ("leaf0", "leaf1")}


def test_chaos_free_baseline_is_steady_everywhere():
    """Control: without chaos, every tenant holds its share in every
    interior bin — the gate's tolerance is not hiding noise."""
    fabric, _tenants = _build()
    result = FabricTimelineExperiment(
        fabric, _matrix(), duration_s=DURATION_S, bin_s=BIN_S).run()
    for vid in UNTOUCHED + VICTIMS:
        steady = _steady_reference(result, vid, spans=[])
        interior = [
            t for b, t in zip(result.bins, result.throughput_gbps[vid])
            if result.bins[0] < b and b + BIN_S <= DURATION_S]
        assert max(abs(t - steady) / steady for t in interior) \
            <= TOLERANCE, (vid, steady, interior)
        assert result.lost.get(vid, 0) == 0
        assert result.drops.get(vid, 0) == 0
