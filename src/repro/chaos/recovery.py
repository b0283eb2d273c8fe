"""Stranded-tenant recovery: detect, drain, re-place.

A :class:`RecoveryController` is the control-plane reaction to a
fault: after its ``detection_delay_s`` it sweeps the fabric for
tenants whose placed route crosses a down link or a crashed switch
(:meth:`~repro.fabric.tenant.FabricTenant.is_stranded`) and re-places
each onto a surviving route. Before the move it **drains**: the
tenant's stale queued packets on the dead egress port of each
surviving switch are scrubbed
(:meth:`~repro.engine.scheduler.EgressScheduler.drop_queued`, scoped
to that tenant and port) and reported on the unified lost-record path
(they were in flight toward the dead link; they must reconcile with
the per-tenant counters, not vanish). The tenant stays live: its
counters, weight, rate bucket and other ports' queues are untouched.

The move itself is :meth:`~repro.fabric.tenant.FabricTenant.migrate`,
which carries stateful-module registers (NetChain sequencers, NetCache
values) along and reports what it carried and which crashed switches'
state it could not read; the controller records that report.

Every outcome is a typed
:class:`~repro.chaos.postmortem.ReplacedTenant`; a tenant that cannot
be re-placed (no surviving route, no free slots) is recorded with
``recovered=False`` and the typed error's message, and the fabric is
left no worse than the fault already made it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
        drained = self._drain(tenant, old_route, egress, now, core)
        try:
            new_route, carried, state_lost = tenant._move(
                (old_route[-1], egress[old_route[-1]]))
        except (LinkDownError, PlacementError, FabricError) as err:
            # Nothing moved; a crashed hop's state is still unreadable.
            down = tuple(name for name in old_route
                         if not self.fabric.switch(name).up)
            return outcome((), drained, (), down, False, str(err))
        return outcome(tuple(new_route), drained, carried, state_lost,
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
