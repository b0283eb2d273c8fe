"""Tests for the runtime: interface, controller lifecycle, policies."""

import pytest

from repro.api import TableEntry, Tenant
from repro.compiler.resource_checker import ResourceRequest
from repro.core import MenshenPipeline, ResourceId, ResourceType
from repro.errors import (
    AdmissionError,
    ConfigError,
    ReconfigurationError,
    RuntimeInterfaceError,
)
from repro.modules import calc, firewall
from repro.policy import DrfPolicy, FirstFitPolicy, UtilityPolicy
from repro.runtime import AxiLiteModel, MenshenController, TofinoModel
from repro.runtime.axi_lite import fig12_series
from repro.rmt.params import DEFAULT_PARAMS


def make_controller(**kw):
    pipe = MenshenPipeline()
    return pipe, MenshenController(pipe, **kw)


class TestInterface:
    def test_reliable_write_retries_on_loss(self):
        pipe, ctl = make_controller()
        pipe.daisy_chain.drop_next(2)
        ctl.interface.write_config_reliable(
            ResourceId(ResourceType.SEGMENT, 0), 1, 0x0104)
        assert pipe.segment_tables[0].segment_of(1) == (1, 4)
        assert ctl.interface.stats.packets_lost == 2

    def test_reliable_write_gives_up(self):
        pipe, ctl = make_controller()
        pipe.daisy_chain.drop_next(100)
        with pytest.raises(ReconfigurationError):
            ctl.interface.write_config_reliable(
                ResourceId(ResourceType.SEGMENT, 0), 1, 0x0104)

    def test_send_batch_counts_delivered(self):
        pipe, ctl = make_controller()
        writes = [(ResourceId(ResourceType.SEGMENT, 0), i, 0x0101)
                  for i in range(4)]
        pipe.daisy_chain.drop_next(1)
        assert ctl.interface.send_batch(writes) == 3

    def test_modeled_time_accumulates(self):
        pipe, ctl = make_controller()
        before = ctl.interface.stats.modeled_time_s
        ctl.interface.write_config(
            ResourceId(ResourceType.SEGMENT, 0), 1, 0x0101)
        assert ctl.interface.stats.modeled_time_s > before

    def test_update_window_holds_nest_and_count(self):
        """The first open sets the bit, only the last close clears it,
        each transition is one register write, and closing a hold that
        was never opened is a typed error."""
        pipe, ctl = make_controller()
        interface, filter_ = ctl.interface, pipe.packet_filter
        with pytest.raises(ReconfigurationError, match="no open update"):
            interface.clear_module_updating(5)
        with pytest.raises(ConfigError):
            interface.set_module_updating(32)
        assert interface.stats.register_writes == 0
        with interface.update_window(5):
            with interface.update_window(5):
                assert filter_.is_module_updating(5)
            assert filter_.is_module_updating(5)
        assert not filter_.is_module_updating(5)
        assert interface.stats.register_writes == 2
        with pytest.raises(ReconfigurationError):
            interface.clear_module_updating(5)
        with pytest.raises(ReconfigurationError):
            interface.clear_module_updating(32)


class TestControllerLifecycle:
    def test_load_and_process(self):
        pipe, ctl = make_controller()
        ctl.load_module(3, calc.P4_SOURCE, "calc")
        calc.install(Tenant.attach(ctl, 3))
        res = pipe.process(calc.make_packet(3, calc.OP_ADD, 2, 3))
        assert calc.read_result(res.packet) == 5

    def test_load_survives_packet_loss(self):
        pipe, ctl = make_controller()
        pipe.daisy_chain.drop_next(3)
        ctl.load_module(3, calc.P4_SOURCE, "calc")
        calc.install(Tenant.attach(ctl, 3))
        res = pipe.process(calc.make_packet(3, calc.OP_ADD, 2, 3))
        assert calc.read_result(res.packet) == 5

    def test_duplicate_module_id_rejected(self):
        pipe, ctl = make_controller()
        ctl.load_module(3, calc.P4_SOURCE)
        with pytest.raises(AdmissionError):
            ctl.load_module(3, calc.P4_SOURCE)

    def test_module_id_zero_reserved(self):
        pipe, ctl = make_controller()
        with pytest.raises(AdmissionError):
            ctl.load_module(0, calc.P4_SOURCE)

    def test_unload_frees_and_stops_traffic(self):
        pipe, ctl = make_controller()
        ctl.load_module(3, calc.P4_SOURCE)
        calc.install(Tenant.attach(ctl, 3))
        ctl.unload_module(3)
        res = pipe.process(calc.make_packet(3, calc.OP_ADD, 2, 3))
        assert res.dropped and res.drop_reason == "unknown_module"
        # Resources are free again: another module can take id 3.
        ctl.load_module(3, firewall.P4_SOURCE)

    def test_unload_zeroes_stateful(self):
        from repro.modules import netchain
        pipe, ctl = make_controller()
        ctl.load_module(3, netchain.P4_SOURCE)
        netchain.install(Tenant.attach(ctl, 3))
        pipe.process(netchain.make_packet(3))
        pipe.process(netchain.make_packet(3))
        assert ctl.register_read(3, "sequencer", 0) == 2
        stage = ctl.modules[3].compiled.registers["sequencer"].stage
        phys = ctl.modules[3].allocation.stage(stage).stateful_base
        ctl.unload_module(3)
        assert pipe.stages[stage].stateful_memory.read(phys) == 0

    def test_update_module_swaps_logic(self):
        pipe, ctl = make_controller()
        ctl.load_module(3, calc.P4_SOURCE, "calc")
        calc.install(Tenant.attach(ctl, 3))
        # Update to the firewall program under the same module id.
        ctl.update_module(3, firewall.P4_SOURCE)
        firewall.install(Tenant.attach(ctl, 3),
                                 blocked=[("10.0.0.1", 20000)])
        res = pipe.process(firewall.make_packet(3, "10.0.0.1", 20000))
        assert res.dropped and res.drop_reason == "discard"

    def test_update_does_not_touch_other_modules_rows(self):
        pipe, ctl = make_controller()
        ctl.load_module(3, calc.P4_SOURCE, "calc")
        ctl.load_module(4, firewall.P4_SOURCE, "fw")
        calc.install(Tenant.attach(ctl, 3))
        mark = pipe.parser_table.log_position
        marks = {i: s.key_extract_table.log_position
                 for i, s in enumerate(pipe.stages)}
        ctl.update_module(3, calc.P4_SOURCE)
        # Only module 3's overlay rows were written during the update.
        assert pipe.parser_table.modules_written_since(mark) == {3}
        for i, stage in enumerate(pipe.stages):
            touched = stage.key_extract_table.modules_written_since(marks[i])
            assert touched <= {3}

    def test_bitmap_cleared_after_load(self):
        pipe, ctl = make_controller()
        ctl.load_module(3, calc.P4_SOURCE)
        assert pipe.packet_filter.read_bitmap() == 0

    def test_admission_fails_when_cam_exhausted(self):
        pipe, ctl = make_controller()
        # calc uses one 4-entry table. With stage-balanced placement,
        # 4 modules fit per stage x 5 stages = 20; the 21st must be
        # rejected by admission control.
        for module_id in range(1, 21):
            ctl.load_module(module_id, calc.P4_SOURCE)
        with pytest.raises(AdmissionError):
            ctl.load_module(21, calc.P4_SOURCE)

    def test_stage_balancing_spreads_modules(self):
        pipe, ctl = make_controller()
        stages = set()
        for module_id in (1, 2, 3, 4, 5):
            loaded = ctl.load_module(module_id, calc.P4_SOURCE)
            stages.update(loaded.compiled.stages_used())
        assert len(stages) >= 2  # not everything piled into stage 0

    def test_insert_entry_full_table(self):
        pipe, ctl = make_controller()
        ctl.load_module(3, calc.P4_SOURCE)
        for op in range(4):
            ctl.insert_entry(3, "calc_table", TableEntry.of(
                {"hdr.calc.op": 100 + op}, "op_echo"))
        with pytest.raises(RuntimeInterfaceError, match="full"):
            ctl.insert_entry(3, "calc_table", TableEntry.of(
                {"hdr.calc.op": 999}, "op_echo"))

    def test_table_delete_frees_slot(self):
        pipe, ctl = make_controller()
        ctl.load_module(3, calc.P4_SOURCE)
        handle = ctl.insert_entry(3, "calc_table", TableEntry.of(
            {"hdr.calc.op": 1}, "op_echo"))
        ctl.table_delete(3, "calc_table", handle)
        res = pipe.process(calc.make_packet(3, 1, 9, 0))
        assert calc.read_result(res.packet) == 0  # entry gone: no echo
        ctl.insert_entry(3, "calc_table", TableEntry.of(
            {"hdr.calc.op": 1}, "op_echo"))

    def test_insert_entry_unknown_action(self):
        pipe, ctl = make_controller()
        ctl.load_module(3, calc.P4_SOURCE)
        with pytest.raises(RuntimeInterfaceError):
            ctl.insert_entry(3, "calc_table", TableEntry.of(
                {"hdr.calc.op": 1}, "nope"))

    def test_register_rw(self):
        from repro.modules import netcache
        pipe, ctl = make_controller()
        ctl.load_module(3, netcache.P4_SOURCE)
        ctl.register_write(3, "values", 2, 4242)
        assert ctl.register_read(3, "values", 2) == 4242

    @pytest.mark.parametrize("step", ["config_writes", "set_module_updating"])
    def test_failed_install_leaks_no_grant(self, step, monkeypatch):
        """Every step after the partition grant is covered by its
        revoke: a failure there leaves no CAM row or stateful word
        granted and the policy's charge released."""
        from repro.modules import netcache
        pipe = MenshenPipeline()
        policy = DrfPolicy(expected_tenants=8, fairness_slack=2.0)
        ctl = MenshenController(pipe, policy=policy)

        def fail(*args, **kwargs):
            raise RuntimeError(f"{step} failed")

        owner = ctl if step == "config_writes" else ctl.interface
        monkeypatch.setattr(owner, step, fail)
        with pytest.raises(RuntimeError, match=step):
            ctl.load_module(3, netcache.P4_SOURCE, "netcache")
        params = pipe.params
        assert pipe.ledger.allocation_of(3) is None
        for stage in range(params.num_stages):
            assert pipe.ledger.free_match_rows(stage) == \
                params.match_entries_per_stage
            assert pipe.ledger.free_stateful_words(stage) == \
                params.stateful_words_per_stage
        assert 3 not in policy.state.usage
        assert 3 not in ctl.modules
        assert pipe.packet_filter.read_bitmap() == 0


class TestPolicies:
    def request(self, match=16, stateful=0, tables=1, parse=4, cont=3):
        return ResourceRequest(match_entries=match, stateful_words=stateful,
                               num_tables=tables, parse_actions=parse,
                               containers=cont)

    def test_first_fit_admits_until_capacity(self):
        policy = FirstFitPolicy()
        admitted = 0
        for i in range(1, 32):
            if policy.admit(i, self.request(match=16)):
                admitted += 1
        # 5 stages x 16 entries = 80 total match entries -> 5 modules
        assert admitted == 5

    def test_drf_caps_dominant_share(self):
        policy = DrfPolicy(expected_tenants=8, fairness_slack=2.0)
        # One module wanting half of all match entries exceeds 2/8 cap.
        assert not policy.admit(1, self.request(match=40))
        assert policy.admit(2, self.request(match=16))

    def test_drf_tracks_shares(self):
        policy = DrfPolicy(expected_tenants=8)
        policy.admit(1, self.request(match=16))
        shares = policy.dominant_shares()
        assert shares[1] == pytest.approx(16 / 80)

    def test_drf_release(self):
        policy = DrfPolicy(expected_tenants=4, fairness_slack=1.0)
        assert policy.admit(1, self.request(match=20))
        assert not policy.admit(2, self.request(match=80))
        policy.release(1)
        assert policy.admit(3, self.request(match=20))

    def test_drf_caps_cumulative_share_per_owner(self):
        # The starvation-by-a-thousand-cuts hole: many small modules,
        # each individually under fair_cap, must not let one owner
        # accumulate an unbounded cumulative dominant share.
        policy = DrfPolicy(expected_tenants=8, fairness_slack=2.0)
        # fair_cap = 0.25 of 80 match entries -> 20 entries per owner.
        assert policy.admit(1, self.request(match=8), owner=100)
        assert policy.admit(2, self.request(match=8), owner=100)
        # Third 8-entry module would take owner 100 to 24/80 = 0.30.
        assert not policy.admit(3, self.request(match=8), owner=100)
        # A different owner still has full headroom.
        assert policy.admit(4, self.request(match=8), owner=200)
        assert policy.owner_dominant_share(100) == pytest.approx(16 / 80)

    def test_drf_release_returns_owner_headroom(self):
        policy = DrfPolicy(expected_tenants=8, fairness_slack=2.0)
        assert policy.admit(1, self.request(match=16), owner=100)
        assert not policy.admit(2, self.request(match=16), owner=100)
        policy.release(1)
        assert policy.owner_dominant_share(100) == 0.0
        assert policy.admit(2, self.request(match=16), owner=100)

    def test_controller_releases_policy_on_unload(self):
        # Evicting a module must return its demand to the policy —
        # otherwise reloading the same VID is rejected as a duplicate
        # and evicted tenants are charged forever.
        pipe = MenshenPipeline()
        policy = DrfPolicy(expected_tenants=8, fairness_slack=2.0)
        ctl = MenshenController(pipe, policy=policy)
        ctl.load_module(3, calc.P4_SOURCE, "calc")
        assert 3 in policy.state.usage
        ctl.unload_module(3)
        assert 3 not in policy.state.usage
        ctl.load_module(3, calc.P4_SOURCE, "calc")  # reload works
        assert 3 in policy.state.usage

    def test_controller_releases_policy_on_update(self):
        pipe = MenshenPipeline()
        policy = DrfPolicy(expected_tenants=8, fairness_slack=2.0)
        ctl = MenshenController(pipe, policy=policy)
        ctl.load_module(3, calc.P4_SOURCE, "calc")
        before = policy.state.usage[3]
        ctl.update_module(3, calc.P4_SOURCE)  # re-admits, no duplicate
        assert policy.state.usage[3] == before

    def test_utility_density_threshold(self):
        policy = UtilityPolicy(min_density=1.0)
        policy.set_utility(1, 0.01)  # low utility, big demand
        assert not policy.admit(1, self.request(match=40))
        policy.set_utility(2, 100.0)
        assert policy.admit(2, self.request(match=40))
        assert policy.total_utility == 100.0

    def test_controller_respects_policy(self):
        class RejectAll:
            def admit(self, module_id, request, ledger):
                return False
        pipe = MenshenPipeline()
        ctl = MenshenController(pipe, policy=RejectAll())
        with pytest.raises(AdmissionError, match="policy"):
            ctl.load_module(3, calc.P4_SOURCE)


class TestCostModels:
    def test_axi_writes_per_entry(self):
        model = AxiLiteModel()
        assert model.writes_per_entry(625) == 20
        assert model.writes_per_entry(205) == 7
        assert model.writes_per_entry(32) == 1

    def test_axi_vs_daisy_shape(self):
        rows = fig12_series()
        assert len(rows) == DEFAULT_PARAMS.num_stages * 2
        for row in rows:
            # The paper's Appendix-A claim: daisy chain is much faster,
            # especially for the wide VLIW entries.
            assert row["daisy_chain_s"] < row["axi_lite_s"]
        vliw = [r for r in rows if r["resource"] == "vliw_action_table"]
        cam = [r for r in rows if r["resource"] == "cam"]
        assert vliw[0]["axi_lite_s"] > cam[0]["axi_lite_s"]

    def test_tofino_disrupts_everyone(self):
        model = TofinoModel()
        assert model.update_disruption([1, 2, 3], updated_module=1) == \
            {1, 2, 3}
        assert model.disruption_window_s() == pytest.approx(50e-3)

    def test_tofino_entry_time_linear(self):
        model = TofinoModel()
        assert model.entry_insert_time(1024) == pytest.approx(
            1024 * model.t_per_entry)
