"""Stranded-tenant recovery: detect, drain, re-place, carry state.

A :class:`RecoveryController` is the control-plane reaction to a
fault: after its ``detection_delay_s`` it sweeps the fabric for
tenants whose placed route crosses a down link or a crashed switch
(:meth:`~repro.fabric.tenant.FabricTenant.is_stranded`) and re-places
each onto a surviving route with the existing
:meth:`~repro.fabric.tenant.FabricTenant.migrate` machinery. Around
the migration it does the two things a real controller must:

* **drain** — the tenant's stale queued packets on the dead egress
  port of each surviving switch are scrubbed
  (:meth:`~repro.engine.scheduler.EgressScheduler.drop_queued`, scoped
  to that tenant and port) and reported on the unified lost-record path
  (they were in flight toward the dead link; they must reconcile with
  the per-tenant counters, not vanish). The tenant stays live: its
  counters, weight, rate bucket and other ports' queues are untouched;
* **carry** — stateful-module registers (NetChain sequencers, NetCache
  values) are snapshotted from every readable old-route switch and
  restored after the move: a re-steered shared switch gets its own
  state back (the §4.1 update wiped it), and each fresh switch
  inherits an abandoned donor's state positionally in route order.
  Registers on a *crashed* switch are gone — those switches are
  reported as ``state_lost``, never silently zeroed.

Every outcome is a typed
:class:`~repro.chaos.postmortem.ReplacedTenant`; a tenant that cannot
be re-placed (no surviving route, no free slots) is recorded with
``recovered=False`` and the typed error's message, and the fabric is
left no worse than the fault already made it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError, FabricError, LinkDownError, PlacementError
from .postmortem import ReplacedTenant


class RecoveryController:
    """Detects stranded tenants and re-places them onto live routes."""

    def __init__(self, fabric, detection_delay_s: float = 0.0):
        if detection_delay_s < 0:
            raise ConfigError(
                f"detection delay must be >= 0, got {detection_delay_s}")
        self.fabric = fabric
        self.detection_delay_s = detection_delay_s

    def stranded(self) -> List:
        """Tenants whose placed route crosses dead capacity, by VID."""
        return [tenant
                for tenant in sorted(self.fabric.tenants(),
                                     key=lambda t: t.vid)
                if tenant.is_stranded()]

    def recover(self, now: float = 0.0,
                fault_at_s: Optional[float] = None,
                core=None) -> List[ReplacedTenant]:
        """One recovery sweep at virtual time ``now``.

        ``fault_at_s`` stamps the fault instant on the outcome records
        (defaults to ``now`` minus the detection delay); ``core`` is
        the run's :class:`~repro.exec.ExecutionCore`, used to report
        drained packets as losses — pass ``None`` outside a timeline
        and the drain still happens, uncounted.
        """
        fault_at = (fault_at_s if fault_at_s is not None
                    else now - self.detection_delay_s)
        return [self._replace(tenant, now, fault_at, core)
                for tenant in self.stranded()]

    # -- one tenant --------------------------------------------------------------

    def _replace(self, tenant, now: float, fault_at: float,
                 core) -> ReplacedTenant:
        def outcome(new_route: Tuple[str, ...], drained: int,
                    carried: Tuple[Tuple[str, str], ...],
                    state_lost: Tuple[str, ...], recovered: bool,
                    reason: str = "") -> ReplacedTenant:
            return ReplacedTenant(
                vid=tenant.vid, name=tenant.name,
                old_route=old_route, new_route=new_route,
                fault_at_s=fault_at, detected_at_s=now,
                completed_at_s=now, drained=drained, carried=carried,
                state_lost=state_lost, recovered=recovered,
                reason=reason)

        old_route = tuple(tenant.routes[0]) if tenant.routes else ()
        if len(tenant.routes) != 1:
            return outcome((), 0, (), (), False,
                           f"recovery needs exactly one placed route, "
                           f"found {len(tenant.routes)}")
        egress = tenant.egress_ports()
        # Snapshot registers on every old-route switch still readable;
        # a crashed switch's state is lost with it.
        snapshots: Dict[str, Dict[str, List[int]]] = {}
        state_lost: List[str] = []
        for name in old_route:
            if self.fabric.switch(name).up:
                snapshots[name] = self._snapshot(tenant.handle(name))
            else:
                state_lost.append(name)
        drained = self._drain(tenant, old_route, egress, now, core)
        try:
            new_route = tuple(tenant.migrate(
                (old_route[-1], egress[old_route[-1]])))
        except (LinkDownError, PlacementError, FabricError) as err:
            return outcome((), drained, (), tuple(state_lost), False,
                           str(err))
        carried = self._carry(tenant, old_route, new_route, egress,
                              snapshots)
        return outcome(new_route, drained, carried, tuple(state_lost),
                       True)

    def _drain(self, tenant, old_route, egress, now: float,
               core) -> int:
        """Scrub the tenant's queues pointed at dead capacity, counting
        (and reporting) the packets they held."""
        drained = 0
        for name in old_route:
            member = self.fabric.switch(name)
            if not member.up:
                continue  # scrubbed at crash time
            port = egress.get(name)
            link = member.links.get(port) if port is not None else None
            if link is None or link.up:
                continue  # healthy wire; its queue still drains
            scrubbed = member.scheduler.drop_queued(tenant.vid, port)
            drained += len(scrubbed)
            if core is not None and scrubbed:
                core.report_fault_losses(member, scrubbed, time=now)
        return drained

    def _carry(self, tenant, old_route, new_route, egress,
               snapshots) -> Tuple[Tuple[str, str], ...]:
        """Restore register state after the migration."""
        carried: List[Tuple[str, str]] = []
        post_egress = tenant.egress_ports()
        for name in new_route:
            if name not in old_route or name not in snapshots:
                continue
            if post_egress.get(name) != egress.get(name):
                # Re-steered shared switch: the §4.1 update wiped its
                # registers; it gets its own snapshot back.
                self._restore(tenant.handle(name), snapshots[name])
        donors = [name for name in old_route
                  if name not in new_route and name in snapshots
                  and snapshots[name]]
        heirs = [name for name in new_route if name not in old_route]
        for donor, heir in zip(donors, heirs):
            self._restore(tenant.handle(heir), snapshots[donor])
            carried.append((donor, heir))
        return tuple(carried)

    @staticmethod
    def _snapshot(handle) -> Dict[str, List[int]]:
        """Every register's full contents, via the tenant facade."""
        out: Dict[str, List[int]] = {}
        for name in handle.registers():
            register = handle.register(name)
            out[name] = [register.read(addr)
                         for addr in range(register.size)]
        return out

    @staticmethod
    def _restore(handle, snapshot: Dict[str, List[int]]) -> None:
        for name in sorted(snapshot):
            register = handle.register(name)
            for addr, value in enumerate(snapshot[name]):
                if value != register.read(addr):
                    register.write(addr, value)
