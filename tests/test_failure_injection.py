"""Failure injection: reconfiguration-packet loss, malformed inputs, and
recovery behavior of the control protocols."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Switch, TableEntry, Tenant
from repro.core import (
    MenshenPipeline,
    PacketClass,
    PacketFilter,
    ResourceId,
    ResourceType,
    build_reconfig_packet,
)
from repro.errors import (
    PacketError,
    ReconfigurationError,
    ReproError,
    TruncatedPacketError,
)
from repro.modules import calc, netchain
from repro.net import PacketBuilder
from repro.net.ethernet import ETHERTYPE_VLAN
from repro.net.packet import Packet
from repro.net.udp_ import MENSHEN_RECONFIG_DPORT
from repro.runtime import MenshenController
from repro.traffic import workload


class TestReconfigLossRecovery:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 3))
    def test_load_correct_under_random_loss(self, losses):
        """Whatever packets the chain loses, a completed load leaves the
        exact same configuration state as a loss-free load."""
        clean = MenshenPipeline()
        MenshenController(clean).load_module(3, calc.P4_SOURCE, "calc")

        lossy = MenshenPipeline()
        lossy.daisy_chain.drop_next(losses)
        MenshenController(lossy).load_module(3, calc.P4_SOURCE, "calc")

        assert lossy.parser_table.snapshot() == clean.parser_table.snapshot()
        for s_lossy, s_clean in zip(lossy.stages, clean.stages):
            assert s_lossy.key_extract_table.snapshot() == \
                s_clean.key_extract_table.snapshot()
            assert s_lossy.key_mask_table.snapshot() == \
                s_clean.key_mask_table.snapshot()

    def test_load_fails_cleanly_under_total_loss(self):
        pipe = MenshenPipeline()
        pipe.daisy_chain.drop_next(10 ** 6)
        ctl = MenshenController(pipe)
        with pytest.raises(ReconfigurationError):
            ctl.load_module(3, calc.P4_SOURCE, "calc")
        # The bitmap must not be left blocking the module's traffic.
        assert pipe.packet_filter.read_bitmap() == 0

    def test_entry_add_retries_under_loss(self):
        pipe = MenshenPipeline()
        ctl = MenshenController(pipe)
        ctl.load_module(3, calc.P4_SOURCE, "calc")
        pipe.daisy_chain.drop_next(1)
        ctl.insert_entry(3, "calc_table", TableEntry.of(
            {"hdr.calc.op": calc.OP_ADD}, "op_add", {"port": 1}))
        result = pipe.process(calc.make_packet(3, calc.OP_ADD, 2, 2))
        assert calc.read_result(result.packet) == 4

    def test_state_zeroed_between_tenants(self):
        """A new tenant must never observe the previous tenant's state
        (the paper's motivation for generating fresh entries on load)."""
        pipe = MenshenPipeline()
        ctl = MenshenController(pipe)
        ctl.load_module(3, netchain.P4_SOURCE, "chain-a")
        netchain.install(Tenant.attach(ctl, 3))
        for _ in range(5):
            pipe.process(netchain.make_packet(3))
        assert ctl.register_read(3, "sequencer") == 5
        ctl.unload_module(3)
        # A different tenant takes the same module id and resources.
        ctl.load_module(3, netchain.P4_SOURCE, "chain-b")
        netchain.install(Tenant.attach(ctl, 3))
        result = pipe.process(netchain.make_packet(3))
        assert netchain.read_seq(result.packet) == 1  # fresh state


def _reference_verdict(packet, update_bitmap):
    """The packet filter as it was written on the bounds-checked
    ``Packet.read_int`` (one range check and one copy per field), kept
    here as the reference for the version that indexes ``packet.buf``
    behind one length comparison."""
    def is_reconfig():
        if len(packet) < 18 + 20 + 2 + 2:
            return False
        if packet.read_int(12, 2) != ETHERTYPE_VLAN:
            return False
        if packet.read_int(18 + 9, 1) != 17:
            return False
        return packet.read_int(18 + 20 + 2, 2) == MENSHEN_RECONFIG_DPORT

    if is_reconfig():
        return PacketClass.RECONFIG
    if len(packet) < 14 + 2 or packet.read_int(12, 2) != ETHERTYPE_VLAN:
        return PacketClass.CONTROL
    vid = packet.read_int(14, 2) & 0xFFF
    if vid < 32 and update_bitmap >> vid & 1:
        return PacketClass.DROP_UPDATING
    return PacketClass.DATA


class TestTruncatedFrameBoundaries:
    """Every prefix of a tagged data frame, a reconfiguration frame and
    an untagged frame: the 14/15/16 (tag) and 27/40/41/42 (UDP port)
    length edges included. The scalar-vs-engine sweep adds the data
    frame under hostile tags (PCP / DEI bits, VID 0 and 4095, a double
    0x8100 tag, an 0x88a8 outer tag) and pins the whole frames."""

    VID = 3
    COUNTER = {PacketClass.DATA: "data_packets",
               PacketClass.RECONFIG: "reconfig_packets",
               PacketClass.CONTROL: "dropped_untagged",
               PacketClass.DROP_UPDATING: "dropped_updating"}

    def _frames(self):
        return {
            "data": workload("calc").flow_packet(self.VID, 5).tobytes(),
            # 64 bytes: the last prefix is the whole, valid write.
            "reconfig": build_reconfig_packet(
                ResourceId(ResourceType.CAM_INVALIDATE, 0), index=15,
                entry=0, vid=self.VID).tobytes(),
            "untagged": PacketBuilder().ethernet().ipv4().udp()
            .payload(b"x" * 30).build().tobytes(),
        }

    def _hostile_frames(self):
        """The data frame under hostile 802.1Q tags."""
        data = self._frames()["data"]

        def tci(value):
            return data[:14] + value.to_bytes(2, "big") + data[16:]
        return {
            "pcp7-dei": tci(7 << 13 | 1 << 12 | self.VID),
            "vid0": tci(0),
            "vid4095": tci(0xFFF),
            # a second 0x8100 tag (VID 5) inside the outer VID-3 tag
            "double-8100": data[:16] + bytes.fromhex("81000005")
            + data[16:],
            # an 802.1ad service tag where the 0x8100 belongs
            "qinq-88a8": data[:12] + bytes.fromhex("88a8") + data[14:],
        }

    def _prefixes(self, frames):
        for kind, raw in frames.items():
            assert len(raw) >= 60, kind
            for size in range(0, min(len(raw), 64) + 1):
                yield f"{kind}[:{size}]", raw[:size]

    @pytest.mark.parametrize("bitmap", [0, 1 << VID])
    def test_filter_matches_the_bounds_checked_reference(self, bitmap):
        seen = set()
        for where, raw in self._prefixes(self._frames()):
            filt = PacketFilter()
            filt.write_bitmap(bitmap)
            expected = _reference_verdict(Packet(raw), bitmap)
            assert filt.classify(Packet(raw)) == expected, where
            assert PacketFilter.is_reconfig_packet(Packet(raw)) == \
                (expected == PacketClass.RECONFIG), where
            assert {name: getattr(filt, name)
                    for name in self.COUNTER.values()} == \
                {name: int(name == self.COUNTER[expected])
                 for name in self.COUNTER.values()}, where
            seen.add(expected)
        assert seen == ({PacketClass.CONTROL, PacketClass.RECONFIG}
                        | ({PacketClass.DROP_UPDATING} if bitmap
                           else {PacketClass.DATA}))

    @pytest.mark.parametrize("from_dataplane", [False, True])
    def test_scalar_and_engine_agree_on_every_prefix(self, from_dataplane):
        def build():
            builder = Switch.build()
            if from_dataplane:
                builder = builder.reconfig_from_dataplane()
            switch = builder.create()
            workload("calc").admit(switch, vid=self.VID)
            return switch

        def outcome(serve, raw):
            try:
                result = serve(Packet(raw))
            except ReproError as exc:
                return type(exc), str(exc)
            return result.dropped, result.drop_reason, result.module_id

        scalar, batched = build(), build()
        engine = batched.engine()
        frames = {**self._frames(), **self._hostile_frames()}
        outcomes = set()
        for where, raw in self._prefixes(frames):
            expected = outcome(scalar.pipeline.process, raw)
            assert outcome(engine.process, raw) == expected, where
            outcomes.add(expected[:2] if isinstance(expected[0], bool)
                         else expected[0])
        # Whole hostile frames: PCP / DEI bits are ignored, VIDs 0 and
        # 4095 name no tenant, a double 0x8100 tag is served by its
        # outer VID, an 0x88a8 outer tag is no 802.1Q tag, and a
        # tenant-tagged write is still a write.
        pinned = {
            "pcp7-dei": (False, "", self.VID),
            "vid0": (True, "unknown_module", 0),
            "vid4095": (True, "unknown_module", 4095),
            "double-8100": (False, "", self.VID),
            "qinq-88a8": (True, "untagged", 0),
            "reconfig": (True, "reconfig_consumed" if from_dataplane
                         else "reconfig_on_dataplane", 0),
        }
        for kind, expected in pinned.items():
            assert outcome(scalar.pipeline.process, frames[kind]) == \
                outcome(engine.process, frames[kind]) == expected, kind
        assert scalar.pipeline.stats.summary() == \
            batched.pipeline.stats.summary()
        # The sweep reached the forwarded frame, every early verdict
        # and the typed error of a frame that ends inside its own
        # parsed headers (or, for a write, inside its payload).
        assert outcomes == (
            {(False, ""), (True, "untagged"), (True, "unknown_module"),
             PacketError}
            | ({(True, "reconfig_consumed"), ReconfigurationError}
               if from_dataplane else {(True, "reconfig_on_dataplane")}))


class TestMalformedInputs:
    def test_truncated_packets_never_crash_the_filter(self):
        pipe = MenshenPipeline()
        for size in range(0, 48, 7):
            result = pipe.process(Packet(b"\x00" * size))
            assert result.dropped

    @given(st.binary(min_size=0, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_random_bytes_never_reconfigure(self, blob):
        """Fuzz: arbitrary data-path bytes can never write configuration."""
        pipe = MenshenPipeline()
        before_parser = pipe.parser_table.snapshot()
        before_ke = pipe.stages[0].key_extract_table.snapshot()
        try:
            pipe.process(Packet(bytes(blob)))
        except (PacketError, TruncatedPacketError):
            pass  # malformed inputs may be rejected, never applied
        assert pipe.parser_table.snapshot() == before_parser
        assert pipe.stages[0].key_extract_table.snapshot() == before_ke

    def test_reconfig_shaped_data_packet_is_inert_in_switch_mode(self):
        pipe = MenshenPipeline(reconfig_from_dataplane=False)
        evil = build_reconfig_packet(
            ResourceId(ResourceType.KEY_MASK, 0), index=2,
            entry=(1 << 193) - 1)
        before = pipe.stages[0].key_mask_table.snapshot()
        result = pipe.process(evil)
        assert result.dropped
        assert pipe.stages[0].key_mask_table.snapshot() == before

    def test_short_reconfig_packet_rejected(self):
        pipe = MenshenPipeline()
        good = build_reconfig_packet(
            ResourceId(ResourceType.SEGMENT, 0), index=1, entry=0x0101)
        truncated = Packet(good.read_bytes(0, 50))
        with pytest.raises(ReconfigurationError):
            pipe.inject_reconfig(truncated)

    def test_unknown_resource_type_rejected(self):
        pipe = MenshenPipeline()
        good = build_reconfig_packet(
            ResourceId(ResourceType.SEGMENT, 0), index=1, entry=0x0101)
        # Corrupt the resource-type nibble to an undefined value (15).
        word = good.read_int(46, 2)
        good.write_int(46, 2, (word & 0x0FFF) | (15 << 12))
        with pytest.raises(ReconfigurationError):
            pipe.inject_reconfig(good)

    def test_module_packet_too_short_for_its_parser(self):
        """A tenant sending packets shorter than its own declared headers
        only hurts itself: the parse faults and the packet is the
        tenant's problem; the pipeline survives."""
        pipe = MenshenPipeline()
        ctl = MenshenController(pipe)
        ctl.load_module(3, calc.P4_SOURCE, "calc")
        calc.install(Tenant.attach(ctl, 3))
        short = calc.make_packet(3, calc.OP_ADD, 1, 1)
        short.truncate(50)  # cuts into the calc header
        with pytest.raises(PacketError):
            pipe.process(short)
        # Well-formed traffic still flows afterwards.
        ok = pipe.process(calc.make_packet(3, calc.OP_ADD, 1, 1))
        assert ok.forwarded
