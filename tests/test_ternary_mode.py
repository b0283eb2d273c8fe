"""Tests for Appendix-B ternary matching, end to end."""

import pytest

from repro.api import TableEntry, Tenant, Ternary
from repro.core import MenshenPipeline, ResourceId, ResourceType, build_reconfig_packet
from repro.errors import RuntimeInterfaceError
from repro.modules import firewall
from repro.rmt.encodings import decode_tcam_entry, encode_tcam_entry
from repro.runtime import MenshenController


def ternary_setup():
    pipe = MenshenPipeline(match_mode="ternary")
    ctl = MenshenController(pipe)
    ctl.load_module(2, firewall.P4_SOURCE_TERNARY, "fw-ternary")
    return pipe, ctl


class TestTcamEncoding:
    def test_roundtrip(self):
        word = encode_tcam_entry(0xABC, 0xFFF, 7)
        assert decode_tcam_entry(word) == (0xABC, 0xFFF, 7)

    def test_width_398(self):
        word = encode_tcam_entry((1 << 193) - 1, (1 << 193) - 1, 0xFFF)
        assert word == (1 << 398) - 1

    def test_reconfig_payload_width(self):
        from repro.core import entry_payload_bytes
        assert entry_payload_bytes(ResourceType.TCAM) == 50


class TestTernaryPipeline:
    def test_prefix_block_and_default_allow(self):
        pipe, ctl = ternary_setup()
        firewall.install_prefix(
            Tenant.attach(ctl, 2), blocked_prefixes=[("10.66.0.0", 16)], default_port=3)
        # Inside the blocked /16: dropped regardless of host bits.
        for src in ("10.66.0.1", "10.66.255.254", "10.66.7.7"):
            result = pipe.process(firewall.make_packet(2, src, 53))
            assert result.dropped, src
        # Outside: allowed by the match-all entry.
        for src in ("10.67.0.1", "192.168.1.1"):
            result = pipe.process(firewall.make_packet(2, src, 53))
            assert result.forwarded and result.egress_port == 3, src

    def test_priority_by_address_order(self):
        # A specific allow installed BEFORE a broader block wins.
        pipe, ctl = ternary_setup()
        from repro.net import Ipv4Address
        ctl.insert_entry(2, "acl", TableEntry.of(
            {"hdr.ipv4.srcAddr": int(Ipv4Address("10.66.1.1")),
             "hdr.udp.dstPort": Ternary(0, 0)},
            "allow", {"port": 5}))
        ctl.insert_entry(2, "acl", TableEntry.of(
            {"hdr.ipv4.srcAddr": Ternary(int(Ipv4Address("10.66.0.0")),
                                         firewall.prefix_mask(16)),
             "hdr.udp.dstPort": Ternary(0, 0)},
            "block"))
        exempt = pipe.process(firewall.make_packet(2, "10.66.1.1", 80))
        assert exempt.forwarded and exempt.egress_port == 5
        other = pipe.process(firewall.make_packet(2, "10.66.1.2", 80))
        assert other.dropped

    def test_module_isolation_in_ternary_mode(self):
        pipe, ctl = ternary_setup()
        firewall.install_prefix(
            Tenant.attach(ctl, 2), blocked_prefixes=[("0.0.0.0", 0)])  # block everything
        ctl.load_module(3, firewall.P4_SOURCE_TERNARY, "fw2")
        firewall.install_prefix(Tenant.attach(ctl, 3), default_port=4)
        # Module 2 blocks all its traffic; module 3's flows anyway.
        assert pipe.process(firewall.make_packet(2, "1.2.3.4", 9)).dropped
        result = pipe.process(firewall.make_packet(3, "1.2.3.4", 9))
        assert result.forwarded and result.egress_port == 4

    def test_update_one_module_leaves_other_rules(self):
        # Appendix B's point: contiguous per-module blocks mean rule
        # updates for one module never move another module's rules.
        pipe, ctl = ternary_setup()
        firewall.install_prefix(
            Tenant.attach(ctl, 2), blocked_prefixes=[("10.66.0.0", 16)], default_port=3)
        ctl.load_module(3, firewall.P4_SOURCE_TERNARY, "fw2")
        firewall.install_prefix(
            Tenant.attach(ctl, 3), blocked_prefixes=[("10.77.0.0", 16)], default_port=4)
        before = pipe.process(firewall.make_packet(3, "10.77.1.1", 1))
        assert before.dropped
        # Re-install module 2's rules (delete + add within its block).
        loaded = ctl.modules[2]
        for handle in list(loaded.table("acl").entries):
            ctl.table_delete(2, "acl", handle)
        firewall.install_prefix(
            Tenant.attach(ctl, 2), blocked_prefixes=[("10.99.0.0", 16)], default_port=3)
        after = pipe.process(firewall.make_packet(3, "10.77.1.1", 1))
        assert after.dropped  # module 3's rule still in force

    def test_masks_rejected_on_exact_tables(self):
        pipe = MenshenPipeline()  # exact mode
        ctl = MenshenController(pipe)
        ctl.load_module(2, firewall.P4_SOURCE, "fw")
        with pytest.raises(RuntimeInterfaceError, match="exact-match"):
            ctl.insert_entry(2, "acl", TableEntry.of(
                {"hdr.ipv4.srcAddr": 1, "hdr.udp.dstPort": Ternary(1, 0)},
                "block"))

    def test_tcam_write_via_daisy_chain(self):
        pipe = MenshenPipeline(match_mode="ternary")
        word = encode_tcam_entry(0x1200, 0xFF00, 6)
        pipe.inject_reconfig(build_reconfig_packet(
            ResourceId(ResourceType.TCAM, 0), index=3, entry=word))
        assert pipe.stages[0].match_table.lookup(0x12AB, 6) == 3
        assert pipe.stages[0].match_table.lookup(0x13AB, 6) is None

    def test_bad_match_mode_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            MenshenPipeline(match_mode="banana")
