"""Fabric graph construction: switches, ports, links, routes.

A :class:`Fabric` wires multiple :class:`repro.api.Switch` instances —
each a full Menshen pipeline with its batched engine and weighted-fair
egress scheduler — into an arbitrary graph. Ports are the joints:
every switch exposes its pipeline's output ports, a :class:`Link`
couples one port on each of two switches (with a capacity and a
propagation delay), and any port without a link is a *host port* where
packets enter and leave the fabric.

Routing is hop-count shortest path over links that are up, computed on
demand (fabrics here are a handful of switches, not a million — the
paper's setting is racks, not WANs). Ties between equal-length paths
are broken *greedily by free module capacity*: tenant placement walks
the chosen route and must admit the tenant's program on every switch
along it, so the route selector prefers the path whose switches have
the most free VID slots (see :mod:`repro.fabric.placement`).

:func:`leaf_spine` builds the canonical two-tier Clos used by the
tests, the benchmark, and ``examples/leaf_spine_fabric.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..api.switch import Switch, SwitchBuilder, TenantCounters
from ..engine.batch import BatchEngine
from ..engine.scheduler import EgressScheduler
from ..errors import LinkDownError, TopologyError
from ..net.packet import Packet
# One ``(switch, port)`` reference type serves both roles: a traffic
# matrix's attachment point and a link endpoint. Defined once in the
# traffic layer (which must not depend on the fabric) and aliased here
# under the name this module's vocabulary uses.
from ..traffic.matrix import HostRef as PortRef


@dataclass
class Link:
    """A bidirectional link between two switch ports.

    ``capacity_bps`` is installed as the egress-scheduler port rate on
    *both* endpoints, so transmissions onto the link pace at link
    speed; ``delay_s`` is the propagation delay the fabric adds between
    a departure on one end and the arrival on the other. Byte counters
    accumulate per tenant (both directions combined) for the link's
    whole life; a timeline run reports its own share of them as
    :attr:`repro.sim.FabricTimelineResult.link_utilization`.
    """

    a: PortRef
    b: PortRef
    capacity_bps: float
    delay_s: float = 0.0
    up: bool = True
    bytes_carried: int = 0
    bytes_by_tenant: Dict[int, int] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.a}—{self.b}"

    def other_end(self, switch: str) -> PortRef:
        if switch == self.a.switch:
            return self.b
        if switch == self.b.switch:
            return self.a
        raise TopologyError(f"switch {switch!r} is not an endpoint of "
                            f"link {self.name}")

    def record(self, vid: int, nbytes: int) -> None:
        self.bytes_carried += nbytes
        self.bytes_by_tenant[vid] = self.bytes_by_tenant.get(vid, 0) \
            + nbytes


class FabricSwitch:
    """One member switch: a full Menshen pipeline plus its serving path.

    Wraps a :class:`repro.api.Switch` with the batched engine the
    fabric drives (scheduled egress always — multi-hop forwarding
    drains :class:`~repro.engine.scheduler.Departure` service order)
    and the port→link map the forwarder follows.
    """

    def __init__(self, name: str, switch: Switch,
                 host_rate_bps: Optional[float] = None):
        self.name = name
        self.switch = switch
        self.engine: BatchEngine = switch.engine()
        #: Bound once: a pipeline's traffic manager is built with it and
        #: never replaced.
        self.scheduler: EgressScheduler = switch.egress_scheduler
        if host_rate_bps is not None:
            self.scheduler.line_rate_bps = host_rate_bps
        #: port index -> attached fabric link (absent = host port)
        self.links: Dict[int, Link] = {}
        #: False while crashed (:meth:`Fabric.crash_switch`): the
        #: member forwards nothing and its links are down.
        self.up: bool = True

    @property
    def num_ports(self) -> int:
        return self.scheduler.num_ports

    def host_ports(self) -> List[int]:
        return [p for p in range(self.num_ports) if p not in self.links]

    def fabric_ports(self) -> List[int]:
        return sorted(self.links)

    def free_module_slots(self) -> int:
        """Free tenant VIDs on this switch (VID 0 is the system's)."""
        params = self.switch.params
        return (params.max_modules - 1
                - len(self.switch.controller.modules))

    def __repr__(self) -> str:
        return (f"FabricSwitch({self.name!r}, "
                f"{len(self.links)} fabric ports, "
                f"{self.free_module_slots()} free slots)")


class Fabric:
    """A graph of Menshen switches joined by capacity/delay links."""

    def __init__(self, default_link_rate_bps: float = 10e9,
                 host_rate_bps: Optional[float] = None):
        if default_link_rate_bps <= 0:
            raise TopologyError(
                f"default link rate must be positive, got "
                f"{default_link_rate_bps}")
        self.default_link_rate_bps = default_link_rate_bps
        #: Transmission rate of host-facing ports (defaults to the
        #: fabric's default link rate).
        self.host_rate_bps = (host_rate_bps if host_rate_bps is not None
                              else default_link_rate_bps)
        self._switches: Dict[str, FabricSwitch] = {}
        self._links: List[Link] = []
        self._tenants: Dict[int, "FabricTenant"] = {}

    # -- construction ---------------------------------------------------------

    def add_switch(self, name: str, switch: Optional[Switch] = None,
                   builder: Optional[SwitchBuilder] = None) -> FabricSwitch:
        """Add one switch (built from ``builder``, adopted from
        ``switch``, or default-built)."""
        if name in self._switches:
            raise TopologyError(f"switch {name!r} already in fabric")
        if switch is not None and builder is not None:
            raise TopologyError("pass switch= or builder=, not both")
        if switch is None:
            switch = (builder or Switch.build()).create()
        member = FabricSwitch(name, switch,
                              host_rate_bps=self.host_rate_bps)
        self._switches[name] = member
        return member

    def switch(self, name: str) -> FabricSwitch:
        member = self._switches.get(name)
        if member is None:
            raise TopologyError(
                f"no switch {name!r} in fabric "
                f"(have: {sorted(self._switches)})")
        return member

    def switches(self) -> List[FabricSwitch]:
        """Members in insertion order (the execution core's order)."""
        return list(self._switches.values())

    def connect(self, a: str, a_port: int, b: str, b_port: int,
                capacity_bps: Optional[float] = None,
                delay_s: float = 0.0) -> Link:
        """Wire ``a:a_port`` to ``b:b_port`` with one link."""
        sw_a, sw_b = self.switch(a), self.switch(b)
        if a == b:
            raise TopologyError(f"self-loop link on {a!r}")
        for sw, port in ((sw_a, a_port), (sw_b, b_port)):
            if not 0 <= port < sw.num_ports:
                raise TopologyError(
                    f"{sw.name}:{port} out of range "
                    f"[0, {sw.num_ports})")
            if port in sw.links:
                raise TopologyError(
                    f"{sw.name}:{port} already wired to "
                    f"{sw.links[port].name}")
        if delay_s < 0:
            raise TopologyError(f"negative delay: {delay_s}")
        capacity = (capacity_bps if capacity_bps is not None
                    else self.default_link_rate_bps)
        if capacity <= 0:
            raise TopologyError(
                f"link capacity must be positive, got {capacity}")
        link = Link(a=PortRef(a, a_port), b=PortRef(b, b_port),
                    capacity_bps=capacity, delay_s=delay_s)
        self._links.append(link)
        sw_a.links[a_port] = link
        sw_b.links[b_port] = link
        # Pace each endpoint's egress at link speed.
        sw_a.scheduler.set_port_rate(a_port, capacity)
        sw_b.scheduler.set_port_rate(b_port, capacity)
        return link

    def links(self) -> List[Link]:
        return list(self._links)

    def link_between(self, a: str, b: str) -> Link:
        """The (first) link joining two switches."""
        for link in self._links:
            if {link.a.switch, link.b.switch} == {a, b}:
                return link
        raise TopologyError(f"no link between {a!r} and {b!r}")

    def set_link_state(self, a: str, b: str, up: bool) -> Link:
        """Administratively raise or fail the link between two switches.

        Routing recomputes from live link state on every call
        (:meth:`shortest_paths` / :meth:`next_hop_port` hold no route
        cache), so a restored link is immediately usable by the next
        placement or migration. Raising a link whose endpoint switch is
        crashed is refused — :meth:`restore_switch` is the only way a
        dead switch's links come back.
        """
        link = self.link_between(a, b)
        if up:
            for name in (a, b):
                if not self.switch(name).up:
                    raise TopologyError(
                        f"cannot raise link {link.name}: switch "
                        f"{name!r} is crashed — restore_switch() it "
                        f"first")
        link.up = up
        return link

    def crash_switch(self, name: str) -> List[Tuple[int, int, Packet]]:
        """Crash one switch: mark it down, fail every attached link,
        and scrub its egress queues.

        A crashed switch forwards nothing and reboots with empty
        buffers, so the queued packets die with it — they are returned
        as ``(port, vid, packet)`` triples (the
        :meth:`~repro.engine.scheduler.EgressScheduler.drop_queued`
        shape) for the caller to account as losses
        (:meth:`repro.exec.ExecutionCore.report_fault_losses` routes
        them onto the unified lost-record path). Crashing a switch
        that is already down is a no-op returning ``[]``, so
        crash→restore→crash is idempotent on fabric state.
        """
        member = self.switch(name)
        if not member.up:
            return []
        member.up = False
        for port in sorted(member.links):
            member.links[port].up = False
        return member.scheduler.drop_queued()

    def restore_switch(self, name: str) -> FabricSwitch:
        """Restore a crashed switch: mark it up and raise every
        attached link whose far end is also up.

        A link toward a still-crashed neighbor stays down until that
        neighbor restores. Module placements and egress configuration
        survive the reboot (they are control-plane state the controller
        re-pushes); the data-plane queues were scrubbed at crash time,
        so a restored switch cannot emit ghost departures for packets
        that died in the crash. Idempotent on an up switch.
        """
        member = self.switch(name)
        member.up = True
        for port in sorted(member.links):
            link = member.links[port]
            if self.switch(link.other_end(name).switch).up:
                link.up = True
        return member

    # -- routing ---------------------------------------------------------------

    def neighbors(self, name: str) -> List[Tuple[str, Link]]:
        """Up-link neighbors of one switch, with the joining link."""
        member = self.switch(name)
        result: List[Tuple[str, Link]] = []
        for port in sorted(member.links):
            link = member.links[port]
            if link.up:
                result.append((link.other_end(name).switch, link))
        return result

    def shortest_paths(self, src: str, dst: str) -> List[List[str]]:
        """All hop-count-shortest switch sequences from src to dst
        over up links. Raises :class:`LinkDownError` when unreachable
        (the typed link-down path)."""
        self.switch(src), self.switch(dst)
        if src == dst:
            return [[src]]
        # BFS layering, then backtrack every shortest predecessor.
        dist = {src: 0}
        preds: Dict[str, List[str]] = {}
        frontier = [src]
        while frontier and dst not in dist:
            nxt = []
            for name in frontier:
                for neighbor, _link in self.neighbors(name):
                    if neighbor not in dist:
                        dist[neighbor] = dist[name] + 1
                        preds.setdefault(neighbor, []).append(name)
                        nxt.append(neighbor)
                    elif dist[neighbor] == dist[name] + 1:
                        preds.setdefault(neighbor, []).append(name)
            frontier = nxt
        if dst not in dist:
            raise LinkDownError(
                f"no up path from {src!r} to {dst!r} "
                f"(down links: "
                f"{[l.name for l in self._links if not l.up]})")
        paths: List[List[str]] = []

        def backtrack(name: str, suffix: List[str]) -> None:
            if name == src:
                paths.append([src] + suffix)
                return
            for pred in preds[name]:
                backtrack(pred, [name] + suffix)

        backtrack(dst, [])
        return sorted(paths)

    def next_hop_port(self, at: str, toward: str) -> int:
        """The egress port on ``at`` whose up link reaches ``toward``."""
        candidates = [(port, link)
                      for port, link in self.switch(at).links.items()
                      if link.other_end(at).switch == toward]
        for port, link in sorted(candidates):
            if link.up:
                return port
        if candidates:
            raise LinkDownError(
                f"every link from {at!r} toward {toward!r} is down")
        raise TopologyError(f"{at!r} has no link toward {toward!r}")

    # -- tenants ----------------------------------------------------------------

    def tenant(self, name: str, source: str, vid: int,
               installer) -> "FabricTenant":
        """Create a fabric-level tenant (place it with
        :meth:`~repro.fabric.tenant.FabricTenant.place`)."""
        from .tenant import FabricTenant
        if vid in self._tenants:
            raise TopologyError(
                f"VID {vid} already belongs to fabric tenant "
                f"{self._tenants[vid].name!r}")
        tenant = FabricTenant(self, name, source, vid, installer)
        self._tenants[vid] = tenant
        return tenant

    def tenants(self) -> List["FabricTenant"]:
        return list(self._tenants.values())

    def _release_tenant(self, vid: int) -> None:
        """Return a VID to the fabric pool (FabricTenant.unload calls
        this after evicting every per-switch instance)."""
        self._tenants.pop(vid, None)

    # -- statistics --------------------------------------------------------------

    def tenant_counters(self, vid: int) -> TenantCounters:
        """One tenant's fabric-wide counters (per-hop semantics: a
        packet crossing three switches counts on each)."""
        return TenantCounters.of(
            member.switch.pipeline.stats.tenants.get(vid)
            for member in self._switches.values())


def leaf_spine(leaves: int = 2, spines: int = 1,
               hosts_per_leaf: int = 4,
               link_capacity_bps: float = 10e9,
               link_delay_s: float = 1e-6,
               make_builder: Optional[Callable[[], SwitchBuilder]] = None
               ) -> Fabric:
    """The canonical two-tier Clos: every leaf links to every spine.

    Leaves are named ``leaf0..leaf{L-1}``, spines ``spine0..spine{S-1}``.
    On each leaf, ports ``0..hosts_per_leaf-1`` face hosts and ports
    ``hosts_per_leaf..hosts_per_leaf+S-1`` are uplinks (to spine ``i``
    in order); spine port ``j`` faces leaf ``j``. ``make_builder`` (a
    zero-argument callable returning a fresh
    :class:`~repro.api.switch.SwitchBuilder`) customizes every member
    switch — port counts are set here from the topology.
    """
    if leaves < 1 or spines < 1:
        raise TopologyError(
            f"need >= 1 leaf and >= 1 spine, got {leaves}/{spines}")
    if hosts_per_leaf < 1:
        raise TopologyError(
            f"need >= 1 host port per leaf, got {hosts_per_leaf}")
    fabric = Fabric(default_link_rate_bps=link_capacity_bps)
    for i in range(leaves):
        b = make_builder() if make_builder is not None else Switch.build()
        fabric.add_switch(f"leaf{i}",
                          builder=b.ports(hosts_per_leaf + spines))
    for j in range(spines):
        b = make_builder() if make_builder is not None else Switch.build()
        fabric.add_switch(f"spine{j}", builder=b.ports(leaves))
    for i in range(leaves):
        for j in range(spines):
            fabric.connect(f"leaf{i}", hosts_per_leaf + j,
                           f"spine{j}", i,
                           capacity_bps=link_capacity_bps,
                           delay_s=link_delay_s)
    return fabric
