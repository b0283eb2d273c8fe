"""Tests for the static verifier: findings model, every pass, and the
admission gates (controller and fabric)."""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    AnalysisReport,
    ConfigContext,
    DeadCodePass,
    Finding,
    IdentityWritePass,
    ModuleContext,
    ResourceQuotaPass,
    Severity,
    TenantConfig,
    WriteSetDisjointnessPass,
    analyze_source,
    analyze_switch,
    find_loop,
    loop_findings,
)
from repro.analysis.passes import overlap
from repro.api import Switch
from repro.compiler import compile_module
from repro.core import MenshenPipeline
from repro.core.resources import ModuleAllocation, StageAllocation
from repro.errors import (
    AdmissionError,
    AnalysisError,
    PlacementError,
)
from repro.modules.registry import ALL_MODULES
from repro.rmt.params import DEFAULT_PARAMS
from repro.runtime import MenshenController
from repro.sysmod import SYSTEM_P4_SOURCE

DEADCODE_SRC = """
header ethernet_t { bit<48> dstAddr; bit<48> srcAddr; bit<16> etherType; }
header vlan_t { bit<16> tci; bit<16> etherType; }
header data_t { bit<32> a; bit<32> b; }
struct headers_t { ethernet_t ethernet; vlan_t vlan; data_t data; }
parser P(packet_in packet, out headers_t hdr) {
    state start {
        packet.extract(hdr.ethernet);
        packet.extract(hdr.vlan);
        packet.extract(hdr.data);
        transition accept;
    }
}
control C(inout headers_t hdr) {
    register<bit<32>>(4) ghost;
    action used_act() { hdr.data.a = 1; }
    action dead_act() { hdr.data.b = 2; }
    table used_tbl { key = { hdr.data.a: exact; } actions = { used_act; } size = 2; }
    table dead_tbl { key = { hdr.data.b: exact; } actions = { dead_act; } size = 2; }
    table never_tbl { key = { hdr.data.a: exact; } actions = { used_act; } size = 2; }
    apply {
        used_tbl.apply();
        if (1 == 2) { never_tbl.apply(); }
    }
}
"""


class TestFindingsModel:
    def test_severity_ordering_and_parse(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert Severity.parse("error") is Severity.ERROR
        assert str(Severity.WARNING) == "warning"
        with pytest.raises(ValueError, match="unknown severity"):
            Severity.parse("fatal")

    def test_finding_str_carries_location(self):
        f = Finding(code="overlap-match", severity=Severity.ERROR,
                    message="boom", subject="vid 3", stage=2)
        assert "error:overlap-match" in str(f)
        assert "vid 3" in str(f) and "stage 2" in str(f)

    def test_report_json_roundtrip(self):
        report = AnalysisReport([
            Finding(code="a", severity=Severity.ERROR, message="x"),
            Finding(code="b", severity=Severity.WARNING, message="y",
                    line=7),
        ])
        back = AnalysisReport.from_json(report.to_json())
        assert back.findings == report.findings
        assert json.loads(report.to_json())[0]["severity"] == "error"

    def test_report_views_and_enforcement(self):
        report = AnalysisReport()
        assert report.ok and len(report) == 0 and bool(report)
        report.add(Finding(code="w", severity=Severity.WARNING, message="m"))
        assert report.ok and len(report.warnings) == 1
        report.add(Finding(code="e", severity=Severity.ERROR, message="m"))
        assert not report.ok
        assert [f.code for f in report.by_code("e")] == ["e"]
        with pytest.raises(AnalysisError) as excinfo:
            report.raise_if_errors("nope")
        assert len(excinfo.value.findings) == 2


class TestModulePasses:
    def test_all_stock_modules_verify_clean(self):
        for mod in ALL_MODULES:
            report = analyze_source(mod.P4_SOURCE, mod.NAME)
            assert report.ok and len(report) == 0, report.render(mod.NAME)

    def test_over_grant_program_rejected_with_typed_finding(self):
        report = analyze_source(ALL_MODULES[0].P4_SOURCE, "calc",
                                granted_match_entries=1)
        assert not report.ok
        codes = {f.code for f in report.errors}
        assert "quota-grant-match" in codes

    def test_over_stateful_grant(self):
        netchain = [m for m in ALL_MODULES if m.NAME == "netchain"][0]
        report = analyze_source(netchain.P4_SOURCE, "netchain",
                                granted_stateful_words=0)
        assert {f.code for f in report.errors} == {"quota-grant-stateful"}

    def test_quota_pass_flags_nonexistent_stage(self):
        from dataclasses import replace
        netcache = [m for m in ALL_MODULES if m.NAME == "netcache"][0]
        compiled = compile_module(netcache.P4_SOURCE, "netcache")
        assert max(compiled.stages_used()) >= 1
        tiny = replace(DEFAULT_PARAMS, num_stages=1)
        ctx = ModuleContext(name="netcache", params=tiny, module=compiled)
        codes = {f.code for f in ResourceQuotaPass().run(ctx)}
        assert "quota-stage" in codes

    def test_dead_code_findings(self):
        report = analyze_source(DEADCODE_SRC, "deadcode")
        assert report.ok  # warnings only
        codes = {f.code for f in report.warnings}
        assert codes == {"dead-table", "dead-action", "dead-register",
                         "dead-branch"}
        dead_table = report.by_code("dead-table")[0]
        assert "dead_tbl" in dead_table.message and dead_table.line > 0

    def test_compile_failure_becomes_finding(self):
        report = analyze_source("control C {", "broken")
        assert not report.ok
        assert report.errors[0].code in ("syntax-error", "type-error")

    def test_dead_code_pass_skips_without_ir(self):
        compiled = compile_module(ALL_MODULES[0].P4_SOURCE, "calc")
        ctx = ModuleContext(name="calc", module=compiled)
        assert list(DeadCodePass().run(ctx)) == []


def _alloc(module_id, stage, match=(0, 4), stateful=(0, 0)):
    return ModuleAllocation(module_id, {
        stage: StageAllocation(match_start=match[0], match_count=match[1],
                               stateful_base=stateful[0],
                               stateful_words=stateful[1])})


def _tenant(vid, alloc, module=None, entry_rows=None):
    module = module or SimpleNamespace(deparse_actions=[], field_alloc={})
    return TenantConfig(vid=vid, name=f"t{vid}", module=module,
                        allocation=alloc, entry_rows=entry_rows or {})


class TestWriteSetDisjointness:
    def _run(self, tenants):
        ctx = ConfigContext(params=DEFAULT_PARAMS, tenants=tenants)
        return list(WriteSetDisjointnessPass().run(ctx))

    def test_disjoint_partitions_are_clean(self):
        findings = self._run([
            _tenant(1, _alloc(1, 1, match=(0, 4), stateful=(0, 8))),
            _tenant(2, _alloc(2, 1, match=(4, 4), stateful=(8, 8))),
        ])
        assert findings == []

    def test_overlapping_cam_rows_detected(self):
        findings = self._run([
            _tenant(1, _alloc(1, 1, match=(0, 4))),
            _tenant(2, _alloc(2, 1, match=(2, 4))),
        ])
        assert [f.code for f in findings] == ["overlap-match"]
        assert findings[0].severity is Severity.ERROR
        assert findings[0].stage == 1

    def test_overlapping_stateful_words_detected(self):
        findings = self._run([
            _tenant(1, _alloc(1, 2, match=(0, 2), stateful=(0, 16))),
            _tenant(2, _alloc(2, 2, match=(2, 2), stateful=(8, 16))),
        ])
        assert [f.code for f in findings] == ["overlap-stateful"]

    def test_partition_out_of_hardware_bounds(self):
        depth = DEFAULT_PARAMS.match_entries_per_stage
        findings = self._run([
            _tenant(1, _alloc(1, 1, match=(depth - 1, 4))),
        ])
        assert [f.code for f in findings] == ["partition-bounds"]

    def test_installed_entry_escaping_partition(self):
        tenant = _tenant(1, _alloc(1, 1, match=(0, 4)),
                         entry_rows={1: [0, 1, 9]})
        findings = self._run([tenant])
        assert [f.code for f in findings] == ["entry-escape"]
        assert "row 9" in findings[0].message

    def test_same_vid_not_compared_against_itself(self):
        a = _tenant(1, _alloc(1, 1, match=(0, 4)))
        b = _tenant(1, _alloc(1, 1, match=(0, 4)))
        assert self._run([a, b]) == []

    @given(st.lists(st.tuples(
        st.integers(1, 4),
        st.dictionaries(
            st.integers(0, DEFAULT_PARAMS.num_stages),
            st.tuples(st.integers(0, 12), st.integers(0, 6),
                      st.integers(0, 12), st.integers(0, 6)),
            max_size=3)), max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_overlaps_match_the_all_pairs_reference(self, specs):
        # Small ranges, few stages (one past the last, so bounds
        # findings mix in) and repeated VIDs, so overlaps are common.
        tenants = [_tenant(vid, ModuleAllocation(vid, {
            stage: StageAllocation(match_start=m0, match_count=mn,
                                   stateful_base=s0, stateful_words=sn)
            for stage, (m0, mn, s0, sn) in stages.items()}))
            for vid, stages in specs]
        findings = self._run(tenants)
        others = [f for f in findings if not f.code.startswith("overlap-")]
        assert findings == others + list(_reference_pairwise(tenants))


def _reference_pairwise(tenants):
    """The all-pairs walk the disjointness pass's sweep replaced, kept as
    its reference: every pair of distinct VIDs, each pair's shared
    stages ascending, CAM rows before stateful words."""
    make = WriteSetDisjointnessPass().finding
    for i, a in enumerate(tenants):
        for b in tenants[i + 1:]:
            if a.vid == b.vid:
                continue
            stages = sorted(set(a.allocation.stages)
                            & set(b.allocation.stages))
            for stage in stages:
                sa = a.allocation.stages[stage]
                sb = b.allocation.stages[stage]
                if (sa.match_count and sb.match_count and overlap(
                        sa.match_start, sa.match_end,
                        sb.match_start, sb.match_end)):
                    yield make(
                        "overlap-match", Severity.ERROR,
                        f"CAM rows of VID {a.vid} [{sa.match_start}, "
                        f"{sa.match_end}) overlap VID {b.vid} "
                        f"[{sb.match_start}, {sb.match_end})",
                        subject=f"vid {a.vid}/vid {b.vid}", stage=stage)
                if (sa.stateful_words and sb.stateful_words and overlap(
                        sa.stateful_base, sa.stateful_end,
                        sb.stateful_base, sb.stateful_end)):
                    yield make(
                        "overlap-stateful", Severity.ERROR,
                        f"stateful words of VID {a.vid} "
                        f"[{sa.stateful_base}, {sa.stateful_end}) overlap "
                        f"VID {b.vid} [{sb.stateful_base}, "
                        f"{sb.stateful_end})",
                        subject=f"vid {a.vid}/vid {b.vid}", stage=stage)


class TestIdentityWrite:
    def _deparse(self, offset, size=2):
        return SimpleNamespace(
            bytes_from_head=offset,
            container=SimpleNamespace(size_bytes=size))

    def test_tci_write_flagged(self):
        module = SimpleNamespace(deparse_actions=[self._deparse(14)],
                                 field_alloc={})
        findings = list(IdentityWritePass().run(ConfigContext(
            params=DEFAULT_PARAMS,
            tenants=[_tenant(3, _alloc(3, 1), module=module)])))
        assert [f.code for f in findings] == ["identity-write"]

    def test_straddling_write_flagged_but_adjacent_ok(self):
        straddle = SimpleNamespace(deparse_actions=[self._deparse(13, 2)],
                                   field_alloc={})
        clear = SimpleNamespace(deparse_actions=[self._deparse(16, 2),
                                                 self._deparse(10, 4)],
                                field_alloc={})
        ctx = ConfigContext(params=DEFAULT_PARAMS, tenants=[
            _tenant(1, _alloc(1, 1), module=straddle),
            _tenant(2, _alloc(2, 2), module=clear)])
        findings = list(IdentityWritePass().run(ctx))
        assert [(f.code, f.subject) for f in findings] == \
            [("identity-write", "vid 1")]

    def test_system_module_exempt(self):
        module = SimpleNamespace(deparse_actions=[self._deparse(14)],
                                 field_alloc={})
        findings = list(IdentityWritePass().run(ConfigContext(
            params=DEFAULT_PARAMS,
            tenants=[_tenant(0, _alloc(0, 0), module=module)])))
        assert findings == []


class TestLoopFreedom:
    def test_find_loop_returns_walk(self):
        walk = find_loop({1: 2, 2: 3, 3: 1})
        assert walk is not None and walk[-1] in walk[:-1]

    def test_acyclic_chain_is_clean(self):
        assert find_loop({1: 2, 2: 3, 3: 4}) is None
        assert list(loop_findings({1: 2})) == []

    def test_loop_findings_code(self):
        findings = list(loop_findings({"a": "b", "b": "a"}, subject="t"))
        assert [f.code for f in findings] == ["forwarding-loop"]

    def test_loop_message_is_deterministic(self):
        messages = set()
        for _ in range(20):
            (finding,) = loop_findings({1: 2, 2: 3, 3: 1})
            messages.add(finding.message)
        assert messages == {"routing loop detected: 1 -> 2 -> 3 -> 1"}


def _corrupt_onto(controller, victim_id, attacker_id):
    """Shift attacker's allocation onto victim's partition (simulating a
    controller/ledger bug the verifier must catch independently)."""
    victim = controller.modules[victim_id]
    attacker = controller.modules[attacker_id]
    stage = sorted(victim.allocation.stages)[0]
    src = victim.allocation.stages[stage]
    attacker.allocation.stages[stage] = StageAllocation(
        match_start=src.match_start, match_count=max(1, src.match_count),
        stateful_base=src.stateful_base,
        stateful_words=src.stateful_words)


class TestControllerGate:
    def _controller(self):
        pipe = MenshenPipeline()
        ctl = MenshenController(pipe)
        ctl.load_system_module(SYSTEM_P4_SOURCE)
        return ctl

    def test_clean_loads_pass_the_enforce_gate(self):
        ctl = self._controller()
        ctl.load_module(1, ALL_MODULES[0].P4_SOURCE, "calc")
        ctl.load_module(2, ALL_MODULES[1].P4_SOURCE, "firewall")
        assert analyze_switch(ctl).ok

    def test_enforce_gate_rejects_corrupted_config(self):
        ctl = self._controller()
        ctl.load_module(1, ALL_MODULES[0].P4_SOURCE, "calc")
        ctl.load_module(2, ALL_MODULES[1].P4_SOURCE, "firewall")
        _corrupt_onto(ctl, 1, 2)
        with pytest.raises(AdmissionError, match="overlap-match"):
            ctl.load_module(3, ALL_MODULES[2].P4_SOURCE, "lb")
        # The rejected module's grant must not leak.
        assert 3 not in ctl.modules


class TestApiIntegration:
    def test_compile_result_carries_findings(self):
        from repro.api import compile as api_compile
        result = api_compile(DEADCODE_SRC, "deadcode")
        assert result.ok
        codes = {f.code for f in result.findings}
        assert "dead-table" in codes
        assert "dead-table" in result.report()

    def test_switch_analyze(self):
        switch = Switch.build().create()
        switch.install_system()
        switch.admit("calc", ALL_MODULES[0].P4_SOURCE, vid=1)
        assert switch.analyze().ok


class TestFabricGate:
    def test_crafted_loop_steering_rejected(self):
        from repro.fabric import leaf_spine
        from repro.modules import calc

        fabric = leaf_spine(leaves=2, spines=1)
        tenant = fabric.tenant(
            "calc", calc.P4_SOURCE, vid=1,
            installer=lambda t, port: calc.install(t, port=port))
        # A leaf0 <-> spine0 ping-pong: each steers back at the other.
        l0 = fabric.switch("leaf0")
        s0 = fabric.switch("spine0")
        to_spine = [p for p, link in l0.links.items()
                    if link.other_end("leaf0").switch == "spine0"][0]
        to_leaf = [p for p, link in s0.links.items()
                   if link.other_end("spine0").switch == "leaf0"][0]
        with pytest.raises(PlacementError, match="routing loop"):
            tenant._prove_loop_free({"leaf0": to_spine, "spine0": to_leaf})

    def test_normal_placement_proves_loop_free(self):
        from repro.fabric import leaf_spine
        from repro.modules import calc

        fabric = leaf_spine(leaves=2, spines=1)
        tenant = fabric.tenant(
            "calc", calc.P4_SOURCE, vid=1,
            installer=lambda t, port: calc.install(t, port=port))
        path = tenant.place(("leaf0", 0), ("leaf1", 0))
        assert path[0] == "leaf0" and path[-1] == "leaf1"
