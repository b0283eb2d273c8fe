#!/usr/bin/env python3
"""Chaos & recovery: a spine crash, stranded tenants, a post-mortem.

Two tenants stream across a 2-leaf/2-spine Clos, one pinned through
each spine. A :class:`~repro.chaos.ChaosSchedule` crashes ``spine0``
mid-run — tenant 2's packets in flight on the dead uplink are lost and
counted on the unified :class:`~repro.exec.LostRecord` path. A
:class:`~repro.chaos.RecoveryController` detects the stranded tenant
after its detection delay and re-places it onto ``spine1`` via the
live migration machinery, draining its stale queue on the dead wire;
the schedule later restores the spine. The run ends with a
typed :class:`~repro.chaos.PostMortemReport` that attributes every
lost packet to the fault that caused it.

Run:  python examples/chaos_recovery.py
"""

from repro.chaos import ChaosController, ChaosSchedule, \
    RecoveryController
from repro.fabric import leaf_spine
from repro.modules import calc
from repro.sim import FabricTimelineExperiment
from repro.traffic import TrafficMatrix

HOSTS = 4
PACKET_SIZE = 500
PPS = 5e4
DURATION_S = 16e-3
BIN_S = 1e-3
CRASH_AT = 5e-3
DETECTION_S = 2e-3
RESTORE_AT = 12e-3


def main() -> None:
    fabric = leaf_spine(leaves=2, spines=2, hosts_per_leaf=HOSTS)
    tenants = {}
    matrix = TrafficMatrix()
    for vid, spine in ((1, "spine1"), (2, "spine0")):
        tenant = fabric.tenant(
            f"tenant{vid}", calc.P4_SOURCE, vid=vid,
            installer=lambda t, port: calc.install(t, port=port))
        tenant.place(("leaf0", vid - 1), ("leaf1", vid - 1),
                     via=(spine,))
        tenants[vid] = tenant
        matrix.add(vid, ("leaf0", vid - 1), ("leaf1", vid - 1),
                   offered_bps=PPS * (PACKET_SIZE + 24) * 8,
                   packet_size=PACKET_SIZE,
                   make_packet=lambda vid=vid: calc.make_packet(
                       vid, calc.OP_ADD, vid, vid, pad_to=PACKET_SIZE))

    schedule = ChaosSchedule()
    schedule.crash_switch("spine0", CRASH_AT)
    schedule.restore_switch("spine0", RESTORE_AT)
    print(f"chaos schedule: {schedule}")

    controller = ChaosController(
        fabric, recovery=RecoveryController(
            fabric, detection_delay_s=DETECTION_S))
    experiment = FabricTimelineExperiment(fabric, matrix,
                                          duration_s=DURATION_S,
                                          bin_s=BIN_S)
    controller.arm(experiment, schedule)
    result = experiment.run()

    print("\nper-tenant delivered throughput (Gbps per 1 ms bin):")
    for vid in (1, 2):
        series = " ".join(f"{t:4.2f}"
                          for t in result.throughput_gbps[vid])
        print(f"  tenant {vid}: {series}")
        print(f"           delivered={result.delivered.get(vid, 0)} "
              f"lost={result.lost.get(vid, 0)}")

    post_mortem = controller.post_mortem(result)
    print("\npost-mortem:")
    for event_report in post_mortem.events:
        event = event_report.event
        print(f"  t={event.time_s * 1e3:.1f} ms: {event.kind} "
              f"{'/'.join(event.target)} — "
              f"{event_report.packets_lost} packets lost, "
              f"victims {list(event_report.victims) or 'none'}")
        for rep in event_report.replaced:
            print(f"           tenant {rep.vid} re-placed "
                  f"{' -> '.join(rep.old_route)}  ==>  "
                  f"{' -> '.join(rep.new_route)} "
                  f"(latency {rep.recovery_latency_s * 1e3:.1f} ms, "
                  f"drained {rep.drained}, "
                  f"state lost on {list(rep.state_lost) or 'nothing'})")

    # The bystander never lost a packet; the victim was re-placed onto
    # the surviving spine and every loss is attributed to the crash.
    assert result.lost.get(1, 0) == 0
    replaced, = post_mortem.replaced()
    assert replaced.vid == 2 and replaced.recovered
    assert tenants[2].routes == [["leaf0", "spine1", "leaf1"]]
    assert post_mortem.unattributed == ()
    assert post_mortem.total_lost() == result.lost.get(2, 0)
    assert fabric.switch("spine0").up
    print("\ntenant 1 (untouched): zero losses through a spine crash, "
          "a recovery migration, and a restore next door")
    print(f"tenant 2 now routed via: "
          f"{' -> '.join(tenants[2].routes[0])}")


if __name__ == "__main__":
    main()
