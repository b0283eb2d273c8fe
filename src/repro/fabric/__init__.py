"""Multi-switch fabrics of Menshen pipelines.

The paper evaluates isolation on one switch; this package scales the
*scenario* to the setting where isolation actually pays off — tenants
spanning multiple switches that contend on shared links:

* :class:`~repro.fabric.topology.Fabric` /
  :class:`~repro.fabric.topology.Link` /
  :class:`~repro.fabric.topology.PortRef` — graph construction with
  per-link capacity and propagation delay;
  :func:`~repro.fabric.topology.leaf_spine` builds the canonical
  two-tier Clos.
* :class:`~repro.fabric.tenant.FabricTenant` — a facade over
  :mod:`repro.api` that places one tenant's program on every switch
  along its route (greedy capacity-aware, or pinned via ``via=``) and
  installs VLAN-based inter-switch forwarding.
* traffic runs on :mod:`repro.sim.fabric_timeline` — event-driven,
  each switch's scheduled egress draining into the next switch's
  ingress through the :mod:`repro.engine` batch path, with per-link
  delays and end-to-end latency under cross-switch contention, fed by
  :class:`repro.traffic.TrafficMatrix` demand.

Quick start::

    from repro.fabric import leaf_spine
    from repro.modules import calc
    from repro.sim import FabricTimelineExperiment
    from repro.traffic import TrafficMatrix

    fabric = leaf_spine(leaves=2, spines=1, hosts_per_leaf=4)
    tenant = fabric.tenant(
        "calc", calc.P4_SOURCE, vid=1,
        installer=lambda t, port: calc.install(t, port=port))
    tenant.place(src=("leaf0", 0), dst=("leaf1", 2))
    matrix = TrafficMatrix()
    matrix.add(1, ("leaf0", 0), ("leaf1", 2), offered_bps=1e9,
               packet_size=100,
               make_packet=lambda: calc.make_packet(1, calc.OP_ADD, 2, 3))
    run = FabricTimelineExperiment(fabric, matrix, duration_s=1e-5).run()
    run.delivered[1], run.mean_latency_s(1)   # leaf0 -> spine0 -> leaf1
"""

from .tenant import FabricTenant
from .topology import Fabric, FabricSwitch, Link, PortRef, leaf_spine

__all__ = [
    "Fabric",
    "FabricSwitch",
    "FabricTenant",
    "Link",
    "PortRef",
    "leaf_spine",
]
