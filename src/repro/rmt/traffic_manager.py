"""Traffic manager: output queues and multicast replication (Fig. 1).

A deliberately simple model: per-port FIFO queues with optional depth
limits, plus a multicast-group table mapping group IDs to port lists.
It is the single-module RMT baseline's queueing
(:class:`~repro.rmt.pipeline.RmtPipeline`) and the FIFO side of the
§3.5 ablation; a Menshen pipeline queues into the weighted-fair
:class:`~repro.engine.scheduler.EgressScheduler` instead.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..errors import ConfigError
from ..net.packet import Packet


class TrafficManager:
    """Output queues + multicast groups."""

    def __init__(self, num_ports: int = 8,
                 queue_capacity: Optional[int] = None):
        if num_ports <= 0:
            raise ConfigError(f"need at least one port, got {num_ports}")
        self.num_ports = num_ports
        self.queue_capacity = queue_capacity
        self._queues: List[Deque[Packet]] = [deque() for _ in range(num_ports)]
        self._groups: Dict[int, List[int]] = {}
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.bytes_out: List[int] = [0] * num_ports

    # -- multicast groups ------------------------------------------------------

    def set_mcast_group(self, group_id: int, ports: List[int]) -> None:
        if group_id == 0:
            raise ConfigError("multicast group 0 means 'unicast'; pick >= 1")
        for port in ports:
            self._check_port(port)
        self._groups[group_id] = list(ports)

    def mcast_ports(self, group_id: int) -> List[int]:
        return list(self._groups.get(group_id, []))

    # -- queueing ---------------------------------------------------------------

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.num_ports:
            raise ConfigError(f"port {port} out of range [0, {self.num_ports})")

    def _enqueue_one(self, packet: Packet, port: int) -> bool:
        queue = self._queues[port]
        if self.queue_capacity is not None and len(queue) >= self.queue_capacity:
            self.dropped += 1
            return False
        queue.append(packet)
        self.enqueued += 1
        return True

    def enqueue(self, packet: Packet, port: int,
                mcast_group: int = 0, module_id: int = 0) -> int:
        """Queue a packet for transmission; returns copies enqueued.

        ``mcast_group > 0`` replicates the packet to every port in the
        group (each replica is an independent copy); otherwise the packet
        goes to ``port``. ``module_id`` names the owning tenant; the
        FIFO manager ignores it (scheduled managers rank on it).
        """
        if mcast_group:
            ports = self._groups.get(mcast_group)
            if not ports:
                self.dropped += 1
                return 0
            count = 0
            for p in ports:
                if self._enqueue_one(packet.copy(), p):
                    count += 1
            return count
        self._check_port(port)
        return 1 if self._enqueue_one(packet, port) else 0

    def dequeue(self, port: int) -> Optional[Packet]:
        self._check_port(port)
        queue = self._queues[port]
        if not queue:
            return None
        self.dequeued += 1
        packet = queue.popleft()
        # Transmitted-byte telemetry counts at dequeue: a packet still
        # sitting in (or dropped from) the queue was never transmitted,
        # and the system module's "real-time statistics" (§3.3) must not
        # claim it was.
        self.bytes_out[port] += len(packet)
        return packet

    def drain(self, port: int) -> List[Packet]:
        """Dequeue everything waiting on ``port``."""
        out = []
        while True:
            pkt = self.dequeue(port)
            if pkt is None:
                return out
            out.append(pkt)

    def drain_all(self) -> Dict[int, List[Packet]]:
        return {port: self.drain(port) for port in range(self.num_ports)}

    def queue_len(self, port: int) -> int:
        self._check_port(port)
        return len(self._queues[port])

    def total_queued(self) -> int:
        return sum(len(q) for q in self._queues)
