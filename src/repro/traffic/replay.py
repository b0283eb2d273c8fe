"""Trace replay: feed captured or generated traffic into a data path.

A :class:`TraceReplayer` holds a packet sequence (from
:func:`~repro.traffic.pcap.load_pcap`, a generator, or any list) and
drives it — in arrival-time order, in batches — through anything that
processes packets: a
:class:`~repro.core.pipeline.MenshenPipeline`, a
:class:`~repro.api.Switch`, or a :class:`~repro.engine.BatchEngine`.
Every replayed packet is a fresh copy, so a replayer can drive the same
trace through several targets (e.g. the scalar pipeline and the batched
engine) for differential comparison.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from ..net.packet import Packet


class TraceReplayer:
    """Replays one packet trace, possibly many times."""

    def __init__(self, packets: Sequence[Packet], sort_by_time: bool = False):
        self._packets: List[Packet] = list(packets)
        if sort_by_time:
            self._packets.sort(key=lambda p: p.arrival_time)

    def __len__(self) -> int:
        return len(self._packets)

    def packets(self) -> List[Packet]:
        """Fresh copies of the trace, in replay order."""
        return [p.copy() for p in self._packets]

    def batches(self, batch_size: int) -> Iterator[List[Packet]]:
        """The trace as consecutive batches of fresh copies."""
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        for start in range(0, len(self._packets), batch_size):
            yield [p.copy()
                   for p in self._packets[start:start + batch_size]]

    def replay(self, target, batch_size: int = 256) -> List:
        """Drive the trace through ``target``; returns per-packet results.

        Targets exposing ``process_batch`` (the engine) get batches of
        ``batch_size``; anything else is fed packet by packet through
        ``process`` (pipelines, switches).
        """
        results: List = []
        if hasattr(target, "process_batch"):
            for batch in self.batches(batch_size):
                results.extend(target.process_batch(batch))
        else:
            for packet in self.packets():
                results.append(target.process(packet))
        return results
