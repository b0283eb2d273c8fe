"""Figure 10: per-module throughput while module 1 is reconfigured.

Three CALC modules share a 10 G link with offered loads split 5:3:2 of
9.3 Gbit/s. At t = 0.5 s module 1 is reconfigured (its bitmap bit set,
configuration rewritten, bitmap cleared). The paper's claims, asserted
here: modules 2 and 3 see **no** throughput impact; module 1 drops only
during its own window and fully recovers. The Tofino Fast-Refresh
baseline stalls everyone (~50 ms) instead.

The switch is a one-switch fabric on the event-driven fabric timeline
(the same harness as the fabric churn and chaos gates): each module
enters on host port 0 and leaves on its own host port, and delivered
bits are binned at the delivery instant. The Tofino baseline holds one
``TofinoModel`` disruption window for every module it stalls.
"""

from __future__ import annotations

from conftest import report
from repro.fabric import Fabric
from repro.modules import calc
from repro.runtime import TofinoModel
from repro.sim import FabricTimelineExperiment
from repro.traffic import TrafficMatrix
from repro.traffic.workloads import fig10_workload

RECONFIG_START_S = 0.5
RECONFIG_DURATION_S = 1.5  # compile + configuration, Fig. 10's window
MODULES = (1, 2, 3)


def _install(tenant, port):
    calc.install(tenant, port=port)


def _build(tofino: bool = False):
    fabric = Fabric()
    fabric.add_switch("sw0")
    matrix = TrafficMatrix()
    for vid, bps in fig10_workload(link_gbps=9.3, size=1500):
        fabric.tenant(f"calc{vid}", calc.P4_SOURCE, vid=vid,
                      installer=_install).place(("sw0", 0), ("sw0", vid))
        matrix.add(vid, ("sw0", 0), ("sw0", vid), offered_bps=bps,
                   packet_size=1500,
                   make_packet=lambda vid=vid: calc.make_packet(
                       vid, calc.OP_ADD, 1, 2, pad_to=1500))
    exp = FabricTimelineExperiment(fabric, matrix, duration_s=3.0,
                                   bin_s=0.1, scale=1000.0)
    if tofino:
        model = TofinoModel()
        for vid in sorted(model.update_disruption(list(MODULES), 1)):
            exp.schedule_reconfig(vid, RECONFIG_START_S,
                                  model.disruption_window_s())
    else:
        exp.schedule_reconfig(1, RECONFIG_START_S, RECONFIG_DURATION_S)
    return exp


def _run_menshen():
    return _build(tofino=False).run()


def test_fig10_timeline(benchmark):
    result = _run_menshen()
    rows = [{
        "time_s": round(t, 1),
        **{f"module{vid}_Gbps": round(result.throughput_gbps[vid][idx], 2)
           for vid in MODULES},
    } for idx, t in enumerate(result.bins)]
    report("fig10_reconfig_disruption",
           "Figure 10: throughput during module 1's reconfiguration "
           f"(window {RECONFIG_START_S}-"
           f"{RECONFIG_START_S + RECONFIG_DURATION_S}s)",
           rows)

    # Claims: modules 2/3 unaffected; module 1 zero inside its window.
    window = (RECONFIG_START_S + 0.1,
              RECONFIG_START_S + RECONFIG_DURATION_S - 0.1)
    for vid in (2, 3):
        interior = result.throughput_gbps[vid][1:-1]
        assert min(interior) >= 0.85 * result.offered_gbps[vid]
    inside = result.throughput_inside(1, window)
    assert inside and max(inside) == 0.0
    assert result.throughput_gbps[1][-2] >= 0.85 * result.offered_gbps[1]

    benchmark.pedantic(_run_menshen, rounds=2, iterations=1)


def test_fig10_tofino_baseline(benchmark):
    result = _build(tofino=True).run()
    rows = [{
        "module": vid,
        "offered_Gbps": round(result.offered_gbps[vid], 2),
        "packets_dropped": result.drops.get(vid, 0),
    } for vid in MODULES]
    report("fig10_tofino_baseline",
           "Figure 10 baseline: Tofino Fast Refresh drops (50 ms, ALL "
           "modules)", rows)
    assert all(result.drops.get(vid, 0) > 0 for vid in MODULES)
    benchmark.pedantic(lambda: _build(tofino=True).run(),
                       rounds=2, iterations=1)
