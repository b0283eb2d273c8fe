"""Per-packet outcomes of a fabric, served on the event timeline.

A traffic matrix gives a run's counts; a test that checks *which*
packet exited *where* (a computed result, an exit port, per-tenant
order against hand-chained engines) needs the packets themselves.
:func:`serve` injects each ``(switch, packet)`` at t = 0 on an
:class:`~repro.exec.ExecutionCore` over the fabric, runs the simulator
until its event list empties, and returns the :class:`Served` sink that
recorded every outcome.
"""

from repro.exec import ExecutionCore, ExecutionSink, summarize_lost
from repro.sim import Simulator


class Served(ExecutionSink):
    """What one :func:`serve` call did to its packets."""

    def __init__(self):
        #: ``(switch, port, vid, packet)`` host-port exits, in delivery
        #: order
        self.delivered = []
        #: vid -> packets dropped inside some pipeline
        self.dropped = {}
        #: ``(vid, link)`` per lost packet, in loss order
        self.lost = []

    def on_drop(self, vid):
        self.dropped[vid] = self.dropped.get(vid, 0) + 1

    def on_deliver(self, member, port, vid, packet, time):
        self.delivered.append((member, port, vid, packet))

    def on_lost(self, member, port, vid, packet, link, time):
        self.lost.append((vid, link))

    def delivered_for(self, vid):
        """One tenant's exited packets, in delivery order."""
        return [packet for _switch, _port, v, packet in self.delivered
                if v == vid]

    def exits(self, vid):
        """One tenant's ``(switch, port)`` exits, in delivery order."""
        return [(switch, port) for switch, port, v, _packet
                in self.delivered if v == vid]

    def lost_records(self):
        return summarize_lost(self.lost)


def serve(fabric, arrivals):
    """Inject ``(switch name, packet)`` arrivals at t = 0 and run to
    empty."""
    sink = Served()
    sim = Simulator()
    core = ExecutionCore.for_fabric(fabric, sink, sim)
    for name, packet in arrivals:
        core.inject(fabric.switch(name), packet, 0.0)
    sim.run()
    return sink
