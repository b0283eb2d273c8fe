"""One compile report: ``repro.api.compile`` and ``analyze_source``.

Both are :func:`repro.analysis.verify.compile_and_analyze`, so a
program gets the same findings — same codes, same messages — whichever
entry point compiles it, the frontend runs once, and the verifier's
module passes (dead code, capacity) report even when the backend
rejects the program.
"""

import pytest

import repro.compiler.compile as compiler_driver
from repro.analysis import ModuleContext, ResourceQuotaPass, Severity
from repro.analysis import analyze_source
from repro.api import Switch, compile
from repro.compiler import compile_module
from repro.modules import calc, firewall, netcache
from test_analysis import DEADCODE_SRC

#: One source per compiler failure class, with the code both entry
#: points must give it.
FAILURES = {
    "lex": (calc.P4_SOURCE.replace("size = 4;", "size = 4; $"),
            "syntax-error"),
    "parse": ("this is not P4 at all", "syntax-error"),
    "typecheck": (calc.P4_SOURCE.replace("hdr.calc.op", "hdr.calc.nope", 1),
                  "type-error"),
    "static-check": (firewall.P4_SOURCE.replace(
        "action block() { mark_to_drop(); }",
        "action block() { recirculate(); }"), "static-check"),
    "allocation": (netcache.P4_SOURCE.replace(
        "register<bit<32>>(8) values;", "register<bit<64>>(8) values;"),
        "allocation-failure"),
    "resources": (calc.P4_SOURCE.replace("size = 4;", "size = 32;"),
                  "quota-hardware"),
}


class TestOneReport:
    @pytest.mark.parametrize("kind", sorted(FAILURES))
    def test_failure_classes_report_alike(self, kind):
        source, code = FAILURES[kind]
        result = compile(source, kind)
        report = analyze_source(source, kind)
        assert not result.ok and result.module is None
        assert result.errors == report.errors
        assert [f.code for f in result.errors] == [code]

    def test_dead_code_reported_when_the_backend_fails(self):
        source = DEADCODE_SRC.replace(
            "size = 2; }\n    table dead_tbl",
            "size = 32; }\n    table dead_tbl")
        result = compile(source, "deadcode")
        assert not result.ok
        assert [f.code for f in result.errors] == ["quota-hardware"]
        assert {f.code for f in result.warnings} == {
            "dead-table", "dead-action", "dead-register", "dead-branch"}


class TestFrontendOnce:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"parse_source": 0, "typecheck": 0, "emit": 0}
        for phase in counts:
            real = getattr(compiler_driver, phase)

            def counted(*args, _real=real, _phase=phase):
                counts[_phase] += 1
                return _real(*args)
            monkeypatch.setattr(compiler_driver, phase, counted)
        return counts

    def test_analyze_source_runs_each_phase_once(self, counts):
        assert analyze_source(firewall.P4_SOURCE, "firewall").ok
        assert counts == {"parse_source": 1, "typecheck": 1, "emit": 1}


class TestCapacity:
    BIG_CALC = calc.P4_SOURCE.replace("size = 4;", "size = 16;")

    def test_capacity_is_a_resource_quota_warning(self):
        module = compile_module(self.BIG_CALC, "big-calc")
        findings = list(ResourceQuotaPass().run(
            ModuleContext(name="big-calc", module=module)))
        assert [(f.code, f.severity, f.stage) for f in findings] == [
            ("capacity", Severity.WARNING, 0)]
        assert "16 of 16 CAM rows" in findings[0].message

    def test_capacity_warning_does_not_block_admission(self):
        switch = Switch.build().create()
        tenant = switch.admit("big-calc", self.BIG_CALC, vid=1)
        calc.install(tenant, port=3)
        result = switch.process(calc.make_packet(1, calc.OP_ADD, 2, 3))
        assert calc.read_result(result.packet) == 5
