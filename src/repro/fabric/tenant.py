"""``FabricTenant``: one tenant spanning one or more switches.

The fabric-level analogue of :class:`repro.api.Tenant`. A fabric
tenant owns one VID and one P4 program, fabric-wide: 802.1Q carries
the VID end-to-end (*VLAN-based inter-switch forwarding* — the same
tag that names the module inside each pipeline also names the tenant
on the wire between pipelines), so one placement installs the same
program on every switch along the tenant's route, with per-switch
table entries pointing at that switch's next hop.

The per-switch entries come from the tenant's ``installer``, a
callable ``(tenant_handle, egress_port) -> None`` — e.g.
``lambda t, port: calc.install(t, port=port)``. On intermediate
switches the egress port faces the next hop's link; on the final
switch it is the destination host port. Egress-scheduling knobs
(:meth:`set_weight`, :meth:`set_rate_limit`) fan out to every placed
switch and are remembered for switches placed later, mirroring the
single-switch facade's install-before-or-after-engine semantics.

The lifecycle does not end at :meth:`~FabricTenant.place`: the
runtime controller's §4.1 load/update/unload procedures fan out across
the route mid-run — :meth:`~FabricTenant.update` replaces the program
on every placed switch (hitless for neighbors),
:meth:`~FabricTenant.unload` evicts it everywhere and releases the VID
fabric-wide, and :meth:`~FabricTenant.migrate` moves the route to a
new destination, admitting on new switches, re-steering shared ones,
evicting the abandoned tail, and carrying the tenant's registers
along. All three compose with the event-driven timeline's
:class:`~repro.sim.fabric_timeline.FabricReconfigEvent`, so churn can
fire inside a running experiment.

A fan-out does the target-independent work once: ``place``,
``update``, ``migrate`` and the update rollback each run the compiler
frontend (:func:`repro.compiler.analyse`) once and hand every switch
the same analysed program. What depends on the switch stays per
switch: the backend against its own target and stage window, its own
admission verify, its own §4.1 write sequence. The IR lives for the
one call and is not retained (a caller that hands ``update`` a program
it analysed itself keeps it alive, as it would the text).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.passes import loop_findings
from ..api.switch import Tenant, TenantCounters
from ..compiler import ModuleIR, SourceOrIR, analyse
from ..engine.scheduler import check_positive
from ..errors import PlacementError
from .placement import choose_path, validate_host_port
from .topology import Fabric, PortRef

Installer = Callable[[Tenant, int], None]


class FabricTenant:
    """One VID's program, placed across the fabric."""

    def __init__(self, fabric: Fabric, name: str, source: str, vid: int,
                 installer: Installer):
        self.fabric = fabric
        self.name = name
        #: P4 text (or the analysed program :meth:`update` was given)
        self.source: SourceOrIR = source
        self.vid = vid
        self.installer = installer
        #: switch name -> per-switch tenant handle, in placement order
        self._handles: Dict[str, Tenant] = {}
        #: switch name -> egress port the installer was run with there
        self._egress: Dict[str, int] = {}
        #: every placed route, in placement order
        self.routes: List[List[str]] = []
        self._weight: Optional[float] = None
        self._rate: Optional[Tuple[float, Optional[float]]] = None

    def __repr__(self) -> str:
        return (f"FabricTenant(vid={self.vid}, name={self.name!r}, "
                f"switches={sorted(self._handles)})")

    # -- placement --------------------------------------------------------------

    def place(self, src: Tuple[str, int], dst: Tuple[str, int],
              via: Optional[Sequence[str]] = None) -> List[str]:
        """Place this tenant along one ``src -> dst`` demand.

        ``src``/``dst`` are ``(switch, host_port)`` attachment points.
        Chooses the route (greedy shortest-path, or pinned through
        ``via``), admits the tenant's program on every switch along it
        that doesn't host it yet, and installs entries steering to each
        switch's next hop. Returns the chosen route.

        Placement never half-lands: route viability, next-hop ports,
        and egress conflicts are all checked *before* any admission or
        install, and the new switches are admitted as a group — if one
        rejects the program (fragmented CAM despite a free VID slot),
        the ones this call already admitted are evicted again. A second
        placement may share switches with an earlier one as long as it
        steers them the same way (the installer is not re-run there); a
        shared switch that would need a *different* egress port raises
        :class:`~repro.errors.PlacementError` — one program instance
        cannot steer the same packets two ways, so such demands need
        an installer that discriminates (or separate tenants).
        """
        src_ref = PortRef(*src)
        validate_host_port(self.fabric, src_ref.switch, src_ref.port,
                           "source")
        path, plan = self._plan(src_ref.switch, dst, via)
        for name, egress in plan.items():
            prev = self._egress.get(name)
            if prev is not None and prev != egress:
                raise PlacementError(
                    f"tenant VID {self.vid} already steers {name!r} "
                    f"to port {prev}; route {path} needs port "
                    f"{egress} there — overlapping placements must "
                    f"agree, or use an installer that discriminates")
        self._prove_loop_free({**self._egress, **plan})
        program = analyse(self.source, self.name)
        self._admit_group(plan, program)
        self.routes.append(path)
        return path

    def _plan(self, src: str, dst: Tuple[str, int],
              via: Optional[Sequence[str]]
              ) -> Tuple[List[str], Dict[str, int]]:
        """Choose the ``src -> dst`` route and each switch's egress port
        on it. Only reads the fabric, so a failure here (no viable
        route, or ``next_hop_port``'s LinkDownError) changes nothing."""
        dst_ref = PortRef(*dst)
        validate_host_port(self.fabric, dst_ref.switch, dst_ref.port,
                           "destination")
        path = choose_path(self.fabric, src, dst_ref.switch, self.vid,
                           via=via)
        plan = {
            name: (dst_ref.port if i == len(path) - 1
                   else self.fabric.next_hop_port(name, path[i + 1]))
            for i, name in enumerate(path)}
        return path, plan

    def _admit_group(self, plan: Dict[str, int], program: ModuleIR) -> None:
        """Admit the program on every switch of ``plan`` that does not
        host it yet and steer it to its planned egress port. A free VID
        slot does not guarantee admission (fragmented CAM can still
        reject the program), so if one admission or install fails, the
        switches this call admitted are evicted again and the tenant is
        left as it was."""
        admitted: List[str] = []
        try:
            for name, egress in plan.items():
                if name not in self._handles:
                    handle = self._admit_on(name, program)
                    admitted.append(name)
                    self.installer(handle, egress)
                    self._egress[name] = egress
        except BaseException:
            for name in admitted:
                self._handles.pop(name).evict()
                self._egress.pop(name, None)
            raise

    def _prove_loop_free(self, steering: Dict[str, int]) -> None:
        """Machine-check that the tenant's fabric-wide steering stays
        loop-free (:func:`repro.analysis.passes.loop_findings`).

        ``steering`` is the switch -> egress-port map as it *would*
        look after the pending change; ports facing hosts are route
        terminals. The egress-agreement check makes loops unreachable
        through this API, but direct callers and future installers get
        the same proof the paper's static checker gives daisy chains.
        """
        next_hop: Dict[str, str] = {}
        for name in sorted(steering):
            link = self.fabric.switch(name).links.get(steering[name])
            if link is not None:
                next_hop[name] = link.other_end(name).switch
        for finding in loop_findings(next_hop, subject=f"vid {self.vid}"):
            raise PlacementError(
                f"tenant VID {self.vid}: {finding.message}")

    def _admit_on(self, name: str, program: ModuleIR) -> Tenant:
        handle = self._handles.get(name)
        if handle is not None:
            return handle
        member = self.fabric.switch(name)
        if member.free_module_slots() <= 0:
            # choose_path should have filtered this; re-check so a
            # direct caller still gets the typed error.
            raise PlacementError(
                f"switch {name!r} has no free module slot for "
                f"tenant VID {self.vid}")
        handle = member.switch.admit(self.name, program, vid=self.vid)
        self._handles[name] = handle
        if self._weight is not None:
            handle.set_weight(self._weight)
        if self._rate is not None:
            handle.set_rate_limit(*self._rate)
        return handle

    # -- lifecycle (fabric-wide §4.1 fan-out) ------------------------------------

    def update(self, source: SourceOrIR,
               installer: Optional[Installer] = None) -> "FabricTenant":
        """Replace this tenant's program on every placed switch.

        ``source`` is P4 text, analysed here once for the whole route,
        or a program the caller already analysed (which the tenant then
        keeps as its source, as it would the text).

        Runs the controller's §4.1 update procedure per switch (bitmap
        bit set, configuration rewritten through the daisy chain,
        bitmap cleared — other tenants keep forwarding throughout),
        then re-runs the installer with each switch's recorded egress
        port, since an update wipes the module's table entries. Pass
        ``installer=`` when the new program needs different steering
        entries (e.g. a CALC→QoS swap). A failure mid-fan-out is
        rolled back to the old program on every switch before the
        exception propagates — the route never stays mixed.
        """
        if not self._handles:
            raise PlacementError(
                f"tenant VID {self.vid} is not placed anywhere; "
                f"place() it before update()")
        install = installer if installer is not None else self.installer
        # Commit self.source/self.installer only after the fan-out
        # succeeds: a program the frontend rejects raises here, before
        # any switch is touched, leaving both the switches and this
        # object on the old program. A *mid-route* failure (the source
        # compiles, but one switch's reinstall is rejected — §4.1
        # update is teardown + install, and the install half can fail
        # on fragmentation — or its installer raises) is rolled back:
        # every switch whose program was replaced, the failing one
        # included, is updated back, and a switch left empty by the
        # failed install re-admits the old program, so the route never
        # stays mixed.
        program = analyse(source, self.name)
        updated: List[str] = []
        try:
            for name, handle in self._handles.items():
                handle.update(program)
                # On the new program from here on, entries or not: an
                # installer that raises must still be rolled back.
                updated.append(name)
                install(handle, self._egress[name])
        except BaseException:
            old = analyse(self.source, self.name)
            for name in list(self._handles):
                member = self.fabric.switch(name)
                if self.vid not in member.switch.controller.modules:
                    del self._handles[name]   # dead handle
                    restored = self._admit_on(name, old)
                    self.installer(restored, self._egress[name])
                elif name in updated:
                    self._handles[name].update(old)
                    self.installer(self._handles[name],
                                   self._egress[name])
            raise
        self.source = source
        self.installer = install
        return self

    def unload(self) -> None:
        """Evict this tenant from every placed switch.

        Per switch: the §4.1 teardown (invalidate and zero everything
        the module owned), an egress-scheduler purge of its queued
        packets and weight/rate state, and the VID slot release. The
        VID is then free fabric-wide — a new tenant may claim it.
        """
        for handle in list(self._handles.values()):
            handle.evict()
        self._handles.clear()
        self._egress.clear()
        self.routes.clear()
        self.fabric._release_tenant(self.vid)

    def migrate(self, dst: Tuple[str, int],
                via: Optional[Sequence[str]] = None) -> List[str]:
        """Move this tenant's route to a new destination, mid-run.

        Requires exactly one placed route (the unambiguous case; a
        multi-demand tenant must be re-placed explicitly). The new
        route keeps the current source switch. Three kinds of switch
        fall out of the diff against the old route, each handled with
        the matching §4.1 procedure:

        * **new** switches — load: admit the program and install
          steering toward the next hop;
        * **shared** switches whose next hop changed — update: rewrite
          the program in place (which clears its entries) and
          re-install steering toward the new next hop;
        * **abandoned** switches — unload: evict, zero partitions,
          purge queued egress.

        The program's registers move with it. Before anything
        mutates, every old-route switch that is up is snapshotted; a
        re-steered shared switch gets its own snapshot back (the §4.1
        update wiped it), and each new switch inherits an abandoned
        switch's snapshot, matched by position in route order. A
        switch that is down cannot be read: its state is lost (the
        ``state_lost`` of a recovery's
        :class:`~repro.chaos.postmortem.ReplacedTenant`).

        Viability (route, next-hop ports) is checked before anything
        mutates, and new switches are admitted as a group, as in
        :meth:`place`, so a failed migration leaves the old placement
        intact. Returns the new route.
        """
        return self._move(dst, via)[0]

    def _move(self, dst: Tuple[str, int],
              via: Optional[Sequence[str]] = None
              ) -> Tuple[List[str], Tuple[Tuple[str, str], ...],
                         Tuple[str, ...]]:
        """:meth:`migrate`, also reporting the carry: returns the new
        route, the ``(donor, heir)`` pairs whose registers moved, and
        the old-route switches whose state was lost because they were
        down."""
        if len(self.routes) != 1:
            raise PlacementError(
                f"tenant VID {self.vid}: migrate() needs exactly one "
                f"placed route, found {len(self.routes)} — re-place "
                f"multi-demand tenants explicitly")
        old_path = self.routes[0]
        path, plan = self._plan(old_path[0], dst, via)
        # The post-migration steering is exactly the new plan (shared
        # switches are re-steered, the abandoned tail is unloaded).
        self._prove_loop_free(dict(plan))
        lost = tuple(name for name in old_path
                     if not self.fabric.switch(name).up)
        snapshots = {name: self._snapshot(name) for name in old_path
                     if name not in lost}
        program = analyse(self.source, self.name)
        self._admit_group(plan, program)
        for name, egress in plan.items():
            if self._egress[name] != egress:
                # Re-steer: §4.1 update clears the module's entries and
                # registers; the installer points it at the new next
                # hop and the switch gets its own state back.
                self._handles[name].update(program)
                self.installer(self._handles[name], egress)
                self._egress[name] = egress
                self._restore(name, snapshots.get(name, {}))
        abandoned = [name for name in old_path if name not in plan]
        for name in abandoned:
            self._handles.pop(name).evict()
            self._egress.pop(name, None)
        self.routes = [path]
        donors = [name for name in abandoned if snapshots.get(name)]
        heirs = [name for name in path if name not in old_path]
        carried = tuple(zip(donors, heirs))
        for donor, heir in carried:
            self._restore(heir, snapshots[donor])
        return path, carried, lost

    def _snapshot(self, name: str) -> Dict[str, List[int]]:
        """Every register's full contents on one placed switch."""
        handle = self._handles[name]
        out: Dict[str, List[int]] = {}
        for reg in handle.registers():
            register = handle.register(reg)
            out[reg] = [register.read(addr)
                        for addr in range(register.size)]
        return out

    def _restore(self, name: str, snapshot: Dict[str, List[int]]) -> None:
        """Write a :meth:`_snapshot` back, word by word where it differs."""
        handle = self._handles[name]
        for reg in sorted(snapshot):
            register = handle.register(reg)
            for addr, value in enumerate(snapshot[reg]):
                if value != register.read(addr):
                    register.write(addr, value)

    def handles(self) -> Dict[str, Tenant]:
        """Per-switch tenant handles, keyed by switch name."""
        return dict(self._handles)

    def handle(self, switch: str) -> Tenant:
        handle = self._handles.get(switch)
        if handle is None:
            raise PlacementError(
                f"tenant VID {self.vid} is not placed on {switch!r} "
                f"(placed on: {sorted(self._handles)})")
        return handle

    def switches(self) -> List[str]:
        """Switches hosting this tenant, in placement order."""
        return list(self._handles)

    def egress_ports(self) -> Dict[str, int]:
        """The egress port this tenant steers to on each placed switch
        — the recovery layer reads it to find the wire a stranded
        route's packets were queued toward."""
        return dict(self._egress)

    # -- fault surface (read by repro.chaos) -------------------------------------

    def is_stranded(self) -> bool:
        """True when any placed route crosses a down link or a crashed
        switch — the detection predicate
        :class:`repro.chaos.recovery.RecoveryController` sweeps with.
        An unplaced tenant is never stranded."""
        for route in self.routes:
            for name in route:
                member = self.fabric.switch(name)
                link = member.links.get(self._egress.get(name))
                if not member.up or (link is not None and not link.up):
                    return True
        return False

    # -- egress scheduling (fabric-wide fan-out) ---------------------------------

    @property
    def weight(self) -> Optional[float]:
        """The fabric-wide fair-share weight, if one was ever set."""
        return self._weight

    @property
    def rate_limit(self) -> Optional[Tuple[float, Optional[float]]]:
        """The fabric-wide ``(rate, burst)`` cap, if one was ever set."""
        return self._rate

    def set_weight(self, weight: float) -> "FabricTenant":
        """Weighted-fair share on every port of every placed switch."""
        check_positive(weight, f"tenant {self.vid}: weight")
        self._weight = float(weight)
        for handle in self._handles.values():
            handle.set_weight(weight)
        return self

    def set_rate_limit(self, rate_bytes_per_s: float,
                       burst_bytes: Optional[float] = None
                       ) -> "FabricTenant":
        """Token-bucket egress cap, applied on every placed switch."""
        check_positive(rate_bytes_per_s, f"tenant {self.vid}: rate")
        if burst_bytes is not None:
            check_positive(burst_bytes, f"tenant {self.vid}: burst")
        self._rate = (float(rate_bytes_per_s), burst_bytes)
        for handle in self._handles.values():
            handle.set_rate_limit(rate_bytes_per_s, burst_bytes)
        return self

    # -- statistics ---------------------------------------------------------------

    def counters(self) -> TenantCounters:
        """Fabric-wide counters (summed over placed switches)."""
        return self.fabric.tenant_counters(self.vid)

    def link_bytes(self) -> Dict[str, int]:
        """Bytes this tenant has carried on each fabric link."""
        return {link.name: link.bytes_by_tenant[self.vid]
                for link in self.fabric.links()
                if self.vid in link.bytes_by_tenant}
