"""``ChaosController``: fire a fault schedule inside a running timeline.

The binding layer between a fabric-agnostic
:class:`~repro.chaos.schedule.ChaosSchedule` and a concrete
:class:`~repro.fabric.topology.Fabric`, exactly the shape churn uses:
:meth:`arm` hands each event to
:meth:`~repro.sim.fabric_timeline.FabricTimelineExperiment.
schedule_chaos`, which fires :meth:`fire` at the event's virtual time.
Faults mutate the fabric (``set_link_state`` / ``crash_switch`` /
``restore_switch``); a crash's scrubbed queue contents are reported
through the run's :class:`~repro.exec.ExecutionCore` so they land on
the same lost-record path as wire losses. When a
:class:`~repro.chaos.recovery.RecoveryController` is attached, every
fault also schedules a recovery sweep ``detection_delay_s`` later.

After the run, :meth:`post_mortem` folds the fired-event log, the
recovery outcomes, and the timeline's timestamped loss log into one
:class:`~repro.chaos.postmortem.PostMortemReport`.

The controller also works without an experiment — :meth:`fire` applied
directly mutates the fabric and keeps its own loss log — so tests
without a timeline exercise the same code path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .postmortem import PostMortemReport, ReplacedTenant, \
    build_post_mortem
from .recovery import RecoveryController
from .schedule import ChaosEvent, ChaosSchedule


class ChaosController:
    """Applies chaos events to a fabric and logs what they cost."""

    def __init__(self, fabric,
                 recovery: Optional[RecoveryController] = None):
        self.fabric = fabric
        self.recovery = recovery
        #: ``(event, affected link names)`` in firing order
        self.fired: List[Tuple[ChaosEvent, Tuple[str, ...]]] = []
        #: fault event -> recovery outcomes of its sweep
        self.replacements: Dict[ChaosEvent, List[ReplacedTenant]] = {}
        self._experiment = None
        #: ``(time, vid, link)`` crash losses logged when no run's sink
        #: is available (standalone :meth:`fire`)
        self._losses: List[Tuple[float, int, str]] = []

    # -- timeline binding --------------------------------------------------------

    def arm(self, experiment, schedule: ChaosSchedule) -> None:
        """Bind a schedule to an experiment (before ``run()``): every
        event fires at its virtual time, and — when a recovery
        controller is attached — every fault is chased by a recovery
        sweep after the detection delay."""
        self._experiment = experiment
        experiment.schedule_chaos(schedule, self.fire)
        if self.recovery is not None:
            for event in schedule.faults():
                at = event.time_s + self.recovery.detection_delay_s
                experiment.schedule_reconfig(
                    0, at, 0.0,
                    apply=lambda ev=event, t=at: self._sweep(ev, t))

    def _core(self):
        """The live :class:`~repro.exec.ExecutionCore`, if a bound
        experiment is running."""
        return getattr(self._experiment, "core", None)

    # -- event application -------------------------------------------------------

    def fire(self, event: ChaosEvent) -> None:
        """Apply one event to the fabric, at its scheduled time."""
        affected = self.affected_links(event)
        if event.kind == "link-down":
            a, b = event.link  # type: ignore[misc]
            self.fabric.set_link_state(a, b, up=False)
        elif event.kind == "link-up":
            a, b = event.link  # type: ignore[misc]
            self.fabric.set_link_state(a, b, up=True)
        elif event.kind == "switch-crash":
            member = self.fabric.switch(event.switch)
            dropped = self.fabric.crash_switch(event.switch)
            core = self._core()
            if core is not None:
                core.report_fault_losses(member, dropped,
                                         time=event.time_s)
            else:
                for port, vid, _packet in dropped:
                    link = member.links.get(port)
                    self._losses.append(
                        (event.time_s, vid,
                         link.name if link is not None
                         else f"switch:{member.name}"))
        else:  # switch-restore
            self.fabric.restore_switch(event.switch)
        self.fired.append((event, affected))

    def _sweep(self, event: ChaosEvent, at: float) -> None:
        if self.recovery is None:
            return
        actions = self.recovery.recover(now=at, fault_at_s=event.time_s,
                                        core=self._core())
        if actions:
            self.replacements.setdefault(event, []).extend(actions)

    def affected_links(self, event: ChaosEvent) -> Tuple[str, ...]:
        """The link names ``event`` takes down (or brings back): the
        one link for link events; every attached link plus the
        ``switch:<name>`` pseudo-link for crash/restore."""
        if event.link is not None:
            return (self.fabric.link_between(*event.link).name,)
        member = self.fabric.switch(event.switch)
        return tuple(member.links[port].name
                     for port in sorted(member.links)
                     ) + (f"switch:{event.switch}",)

    # -- reporting ---------------------------------------------------------------

    def post_mortem(self, result=None,
                    elapsed_s: Optional[float] = None
                    ) -> PostMortemReport:
        """Fold this controller's logs (and a timeline result's loss
        log, when one is given) into a typed report."""
        losses = list(self._losses)
        elapsed = elapsed_s if elapsed_s is not None else 0.0
        if result is not None:
            losses.extend(result.loss_log)
            elapsed = result.elapsed_s
        return build_post_mortem(self.fired, self.replacements, losses,
                                 elapsed)
