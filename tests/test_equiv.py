"""Equivalence certification (``repro.analysis.equiv``) end to end.

Four layers of guarantees:

* **Soundness on stock modules** — all eight evaluated modules certify
  equivalent (or correctly-reasoned fallback) with zero traffic: the
  certifier has no false positives on the honest compiler.
* **The mutation harness** — every seeded corruption a buggy compiler
  could plausibly produce (swapped first-match priorities, dropped
  first-match entries, wrong op targets, swapped exact leaves,
  mislabelled fallback reasons, and one plan corruption per structural
  obligation) is caught by exactly the obligation it targets; every
  obligation but ``epoch`` and ``refusal-reason`` has such a guard.
  For every behaviorally observable corruption the mutant *actually
  disagrees* with the scalar oracle: on the synthesized counterexample
  packet, or — for a structural violation, which names no key — on a
  packet of the module's seeded flow stream.
* **Engine integration** — ``BatchEngine(check_compiled=...)``
  certifies on every lazy rebuild: ``enforce`` refuses the compiled
  path (counted under the ``uncertified`` fallback reason) and
  ``invalidate`` clears the stored certificates.
* **Surfaces** — ``Switch.analyze()`` and ``repro-verify --classifier``
  report certificates.
"""

import json
import random

import pytest

from repro.api import Switch, TableEntry, Tenant, Ternary
from repro.analysis.equiv import (
    CERTIFICATE_SCHEMA_VERSION,
    MUTATIONS,
    OBLIGATIONS,
    Certificate,
    apply_mutation,
    certify_classifier,
)
from repro.analysis.equiv.certify import _apply_leaf
from repro.core import MenshenPipeline
from repro.engine import BatchEngine, Fallback, compile_classifier
from repro.engine.classifier import (
    _ADD, _ADDI, _DISCARD, _MCAST, _PORT, _SET, _SUB, _SUBI)
from repro.engine.batch import CERTIFY_MODES, FALLBACK_REASONS
from repro.modules import firewall
from repro.net.packet import Packet
from repro.runtime import MenshenController
from repro.traffic import flow_stream, workload
from test_engine_differential import ENGINE_MODES

STOCK_MODULES = ("calc", "firewall", "load_balancer", "qos",
                 "source_routing", "netcache", "netchain", "multicast")


# ---------------------------------------------------------------------------
# Fixtures: one pipeline per compiled-stage shape
# ---------------------------------------------------------------------------

def _workload_pipeline(name, vid):
    switch = Switch.build().create()
    workload(name).admit(switch, vid=vid)
    return switch.pipeline, vid


def _ternary_pipeline(install, vid=2):
    pipe = MenshenPipeline(match_mode="ternary")
    ctl = MenshenController(pipe)
    ctl.load_module(vid, firewall.P4_SOURCE_TERNARY, "fw-ternary")
    install(ctl, vid)
    return pipe, vid


def _install_prefixes(ctl, vid):
    firewall.install_prefix(
        Tenant.attach(ctl, vid),
        blocked_prefixes=[("10.66.0.0", 16), ("10.0.0.0", 8)],
        default_port=3)


def _install_interleaved(ctl, vid):
    from repro.net import Ipv4Address
    ctl.insert_entry(vid, "acl", TableEntry.of(
        {"hdr.ipv4.srcAddr": Ternary(int(Ipv4Address("10.0.10.0")),
                                     0xFF00FF00),
         "hdr.udp.dstPort": Ternary(0, 0)},
        "block"))
    firewall.install_prefix(Tenant.attach(ctl, vid), default_port=5)


#: name -> () -> (pipeline, vid); each exercises a distinct stage shape.
FIXTURES = {
    "exact-firewall": lambda: _workload_pipeline("firewall", 3),
    "exact-calc": lambda: _workload_pipeline("calc", 5),
    "ternary-prefixes": lambda: _ternary_pipeline(_install_prefixes),
    "ternary-interleaved": lambda: _ternary_pipeline(_install_interleaved),
    "stateful-netcache": lambda: _workload_pipeline("netcache", 4),
}

#: fixture -> the workload whose flow packets its module parses.
FIXTURE_WORKLOADS = {
    "exact-firewall": "firewall",
    "exact-calc": "calc",
    "ternary-prefixes": "firewall",
    "ternary-interleaved": "firewall",
    "stateful-netcache": "netcache",
}

#: (fixture, mutation, violated obligation, oracle_observable). Every
#: mutation appears with at least one fixture where it has an
#: applicable site, and must violate exactly the obligation named;
#: observability means the mutant must disagree with the scalar oracle
#: on some packet (a wrong *fallback reason* never changes behavior —
#: the engine bails to the correct oracle either way).
MUTATION_CASES = [
    ("exact-firewall", "swapped-exact-leaves", "exact-keys", True),
    ("exact-calc", "swapped-exact-leaves", "exact-keys", True),
    ("exact-calc", "wrong-op-target", "exact-keys", True),
    ("ternary-prefixes", "swapped-priorities", "residual-order", True),
    ("ternary-interleaved", "swapped-priorities", "residual-order", True),
    ("ternary-interleaved", "dropped-residual-entry", "residual-order",
     True),
    ("stateful-netcache", "wrong-fallback-reason", "fallback-reason",
     False),
    ("exact-calc", "parse-offset-off-by-one", "parse-plan", True),
    ("exact-calc", "dropped-deparse-write", "deparse-plan", True),
    ("exact-calc", "dropped-stage-plan", "stage-alignment", True),
    ("exact-calc", "flipped-key-slot", "key-recipe", True),
    ("exact-firewall", "extra-miss-write", "miss-default", True),
]

#: Obligations judged on the artifact's plans rather than on one key:
#: a violation names no key, so it carries no counterexample packet.
STRUCTURAL = {"parse-plan", "deparse-plan", "stage-alignment",
              "key-recipe", "miss-default"}


def _compile(pipeline, vid):
    return compile_classifier(pipeline, vid)


def _oracle_disagrees(pipeline, clf, vid, packet):
    """True when the classifier and the scalar pipeline walk produce
    different observable results for ``packet``."""
    outcome = clf.classify(packet.copy(), 0)
    merged_ref, phv_ref = pipeline.execute(packet.copy(), vid,
                                           buffer_slot=0)
    if type(outcome) is Fallback:
        return False  # mutant bails to the (correct) oracle: no change
    merged_mut, phv_mut = outcome
    if (merged_mut is None) != (merged_ref is None):
        return True
    if merged_mut is not None and \
            bytes(merged_mut.buf) != bytes(merged_ref.buf):
        return True
    return phv_mut != phv_ref


# ---------------------------------------------------------------------------
# Stock modules certify clean, with zero traffic
# ---------------------------------------------------------------------------

class TestStockModulesCertify:
    @pytest.mark.parametrize("name", STOCK_MODULES)
    def test_module_certifies_equivalent(self, name):
        pipeline, vid = _workload_pipeline(name, 3)
        before = (pipeline.stats.packets_in, pipeline.stats.packets_out,
                  pipeline.config_epoch)
        certificate = certify_classifier(pipeline, vid=vid)
        after = (pipeline.stats.packets_in, pipeline.stats.packets_out,
                 pipeline.config_epoch)
        assert certificate.ok, certificate.render()
        assert certificate.vid == vid
        assert certificate.epoch == pipeline.epoch_of(vid)
        assert before == after, "certification must be zero-traffic"

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_every_stage_shape_certifies(self, fixture):
        pipeline, vid = FIXTURES[fixture]()
        certificate = certify_classifier(pipeline, vid=vid)
        assert certificate.ok, certificate.render()

    def test_obligations_are_exhaustive_and_ordered(self):
        pipeline, vid = FIXTURES["ternary-prefixes"]()
        certificate = certify_classifier(pipeline, vid=vid)
        names = [o.name for o in certificate.obligations]
        # Every catalog obligation appears (proved or skipped) ...
        assert set(names) == set(OBLIGATIONS)
        # ... in catalog order.
        order = {name: i for i, name in enumerate(OBLIGATIONS)}
        assert names == sorted(names, key=order.__getitem__)
        statuses = {o.status for o in certificate.obligations}
        assert statuses <= {"proved", "skipped"}

    def test_epoch_obligation_tracks_the_tenants_own_writes_only(self):
        """An artifact goes stale when its *own* tenant is written, and
        stays provable through any amount of neighbour churn."""
        fw, qos = workload("firewall"), workload("qos")
        switch = Switch.build().create()
        own = fw.admit(switch, vid=3)
        neighbour = qos.admit(switch, vid=5)
        pipeline = switch.pipeline
        clf = _compile(pipeline, 3)

        table = neighbour.table(neighbour.tables()[0])
        table.delete(table.handles()[0])
        neighbour.update(qos.source)
        neighbour.evict()
        certificate = certify_classifier(pipeline, clf)
        assert certificate.ok, certificate.render()
        by_name = {o.name: o for o in certificate.obligations}
        assert by_name["epoch"].status == "proved"

        acl = own.table("acl")
        acl.delete(acl.handles()[0])
        certificate = certify_classifier(pipeline, clf)
        assert not certificate.ok
        by_name = {o.name: o for o in certificate.obligations}
        assert by_name["epoch"].status == "violated"
        assert "vid 3" in by_name["epoch"].detail
        # Only ``epoch`` is judged on a stale artifact; a recompile at
        # the tenant's new epoch certifies again.
        assert {o.name for o in certificate.obligations
                if o.status == "violated"} == {"epoch"}
        assert certify_classifier(pipeline, vid=3).ok

    def test_uncompilable_classifier_gets_reason_checked(self):
        """A refused compile is certified for *refusal accuracy*, not
        equivalence: the reason must match an independent recompile."""
        from repro.rmt.key_extractor import CmpOp, KeyExtractEntry
        from repro.rmt.phv import ContainerRef, ContainerType

        pipeline, vid = _workload_pipeline("firewall", 3)
        stage = pipeline.stages[0]
        entry = KeyExtractEntry(
            cmp_op=CmpOp.EQ,
            cmp_a=ContainerRef(ContainerType.META, 0), cmp_b=0)
        stage.key_extract_table.write(vid, entry.encode())
        clf = _compile(pipeline, vid)
        assert not clf.ok
        certificate = certify_classifier(pipeline, clf, vid=vid)
        assert certificate.ok, certificate.render()
        assert not certificate.compiled_ok
        assert certificate.reason == clf.reason
        by_name = {o.name: o for o in certificate.obligations}
        assert by_name["refusal-reason"].status == "proved"


def _first_installed_vliw(pipeline):
    """``(stage, address)`` of the first non-zero VLIW word."""
    for stage in pipeline.stages:
        for address in range(stage.vliw_table.depth):
            if stage.vliw_table.read(address):
                return stage, address
    raise AssertionError("no VLIW word installed")


class TestStageViolationsByKind:
    """A stage-level fault is filed under the obligation of the stage's
    match kind: ``exact-keys`` for an exact-match table,
    ``residual-order`` for a ternary one."""

    @pytest.mark.parametrize("fixture,obligation", [
        ("ternary-prefixes", "residual-order"),
        ("exact-firewall", "exact-keys"),
    ])
    def test_undecodable_vliw_word_is_filed_by_stage_kind(self, fixture,
                                                          obligation):
        from repro.rmt.action import _OPS_BY_CODE, _SLOT_SHIFTS

        pipeline, vid = FIXTURES[fixture]()
        clf = _compile(pipeline, vid)
        epoch = pipeline.epoch_of(vid)
        unknown = next(code for code, op in enumerate(_OPS_BY_CODE)
                       if op is None)
        stage, address = _first_installed_vliw(pipeline)
        # A raw table write, behind the epoch: the artifact stays current
        # while the word it was compiled from no longer decodes.
        stage.vliw_table.write(address, unknown << 21 << _SLOT_SHIFTS[0])
        assert pipeline.epoch_of(vid) == epoch
        certificate = certify_classifier(pipeline, clf, vid=vid)
        violated = [o for o in certificate.obligations
                    if o.status == "violated"]
        assert [o.name for o in violated] == [obligation]
        assert "undecodable" in violated[0].detail

    @pytest.mark.parametrize("fixture,kind", [
        ("ternary-prefixes", 0),   # ternary stage as an exact hash
        ("exact-firewall", 1),     # exact stage as a first-match list
    ])
    def test_stage_compiled_as_the_other_kind_violates_exact_keys(
            self, fixture, kind):
        pipeline, vid = FIXTURES[fixture]()
        clf = _compile(pipeline, vid)
        clf._stages[0].kind = kind
        certificate = certify_classifier(pipeline, clf, vid=vid)
        violated = [o for o in certificate.obligations
                    if o.status == "violated"]
        assert [o.name for o in violated] == ["exact-keys"]
        assert f"compiled as kind {kind}" in violated[0].detail


class TestCounterexampleReplay:
    """The certifier replays a leaf's container writes when it carries a
    counterexample key across stages; each op code must compute what
    ``classify`` computes for it."""

    WRAP = 0xFFFF

    @staticmethod
    def _vals():
        return [10 * i + 3 for i in range(24)]

    @pytest.mark.parametrize("code,b,expected", [
        (_ADD, 3, (23 + 33) & WRAP),
        (_SUB, 3, (23 - 33) & WRAP),
        (_ADDI, 70000, (23 + 70000) & WRAP),
        (_SUBI, 50, (23 - 50) & WRAP),
        (_SET, 0x12345, 0x12345 & WRAP),
    ], ids=["add", "sub", "addi", "subi", "set"])
    def test_each_write_op_code(self, code, b, expected):
        vals = self._vals()
        _apply_leaf(((code, 1, 2, b, self.WRAP),), vals)
        want = self._vals()
        want[1] = expected
        assert vals == want

    def test_writes_read_the_incoming_phv(self):
        vals = self._vals()
        _apply_leaf(((_SET, 0, 0, 99, self.WRAP),
                     (_ADDI, 1, 0, 1, self.WRAP)), vals)
        assert vals[:2] == [99, 3 + 1]

    def test_egress_ops_leave_containers_alone(self):
        vals = self._vals()
        _apply_leaf(((_PORT, 0, 2, 1, 0), (_MCAST, 0, 2, 1, 0),
                     (_DISCARD, 0, 0, 0, 0)), vals)
        assert vals == self._vals()


# ---------------------------------------------------------------------------
# The mutation harness: every corruption caught, counterexamples real
# ---------------------------------------------------------------------------

class TestMutationHarness:
    @pytest.mark.parametrize(
        "fixture,mutation,obligation,observable", MUTATION_CASES,
        ids=[f"{f}-{m}-{o}" for f, m, _ob, o in MUTATION_CASES])
    def test_mutation_caught_with_counterexample(self, fixture, mutation,
                                                 obligation, observable):
        pipeline, vid = FIXTURES[fixture]()
        clf = _compile(pipeline, vid)
        assert certify_classifier(pipeline, clf, vid=vid).ok

        mutant, description = apply_mutation(clf, mutation)
        assert description is not None, \
            f"{mutation} found no applicable site in {fixture}"

        certificate = certify_classifier(pipeline, mutant, vid=vid)
        assert not certificate.ok, \
            f"{mutation} on {fixture} was not caught ({description})"
        assert {o.name for o in certificate.violations()} == \
            {obligation}, certificate.render()
        structural = obligation in STRUCTURAL
        assert bool(certificate.counterexamples) is not structural, \
            certificate.render()
        if not observable:
            return
        if structural:
            stream = flow_stream(workload(FIXTURE_WORKLOADS[fixture]), vid,
                                 random.Random(7), 64)
            assert any(_oracle_disagrees(pipeline, mutant, vid, packet)
                       for packet in stream), \
                (f"{mutation} on {fixture}: oracle agrees with the "
                 f"mutant on every packet of the flow stream")
            return
        packets = [Packet(bytes.fromhex(ce.packet_hex))
                   for ce in certificate.counterexamples if ce.packet_hex]
        assert packets, (f"{mutation} on {fixture}: no counterexample "
                         f"packet reached the wire")
        assert any(_oracle_disagrees(pipeline, mutant, vid, packet)
                   for packet in packets), \
            (f"{mutation} on {fixture}: oracle agrees with the "
             f"mutant on every synthesized packet")

    def test_every_mutation_exercised(self):
        covered = {mutation for _f, mutation, _ob, _o in MUTATION_CASES}
        assert covered == set(MUTATIONS)

    def test_every_obligation_guarded_by_a_mutation(self):
        """Each obligation some corruption can break has a mutant that
        breaks it (``epoch`` and ``refusal-reason`` judge the artifact's
        provenance and have direct tests above)."""
        guarded = {obligation for _f, _m, obligation, _o in MUTATION_CASES}
        assert guarded == set(OBLIGATIONS) - {"epoch", "refusal-reason"}

    def test_unknown_mutation_rejected(self):
        pipeline, vid = FIXTURES["exact-firewall"]()
        clf = _compile(pipeline, vid)
        with pytest.raises(ValueError, match="unknown mutation"):
            apply_mutation(clf, "made-up")

    def test_clone_does_not_alias_mutable_state(self):
        pipeline, vid = FIXTURES["exact-firewall"]()
        clf = _compile(pipeline, vid)
        mutant, description = apply_mutation(clf, "swapped-exact-leaves")
        assert description is not None
        # The original still certifies: mutation never leaks back.
        assert certify_classifier(pipeline, clf, vid=vid).ok


# ---------------------------------------------------------------------------
# Certificate model: findings + JSON round-trip
# ---------------------------------------------------------------------------

class TestCertificateModel:
    def _violated_certificate(self):
        pipeline, vid = FIXTURES["ternary-prefixes"]()
        clf = _compile(pipeline, vid)
        mutant, _ = apply_mutation(clf, "swapped-priorities")
        return certify_classifier(pipeline, mutant, vid=vid)

    def test_json_round_trip(self):
        certificate = self._violated_certificate()
        clone = Certificate.from_json(certificate.to_json())
        assert clone.to_dict() == certificate.to_dict()
        assert clone.ok == certificate.ok is False
        assert clone.schema_version == CERTIFICATE_SCHEMA_VERSION

    def test_json_is_plain_data(self):
        certificate = self._violated_certificate()
        data = json.loads(certificate.to_json())
        assert data["ok"] is False
        assert data["schema_version"] == CERTIFICATE_SCHEMA_VERSION
        assert {o["status"] for o in data["obligations"]} <= \
            {"proved", "violated", "skipped"}

    def test_findings_model_compatibility(self):
        from repro.analysis import Severity

        certificate = self._violated_certificate()
        report = certificate.to_report()
        assert not report.ok
        for finding in report.findings:
            assert finding.code.startswith("equiv-")
            assert finding.code[len("equiv-"):] in OBLIGATIONS
            assert finding.severity is Severity.ERROR
            assert finding.pass_name == "equiv"

    def test_render_mentions_every_obligation(self):
        certificate = self._violated_certificate()
        rendered = certificate.render()
        for name in OBLIGATIONS:
            assert name in rendered


# ---------------------------------------------------------------------------
# Engine integration: check_compiled
# ---------------------------------------------------------------------------

def _firewall_engine(enable_cache=False, **kw):
    switch = Switch.build().create()
    workload("firewall").admit(switch, vid=3)
    engine = switch.engine(enable_cache=enable_cache, **kw)
    packets = [workload("firewall").flow_packet(3, i) for i in range(8)]
    return switch, engine, packets


def _corrupt_classifier(engine, vid=3):
    """Swap a mutant into the tenant's serving context and re-certify
    it, as a lazy rebuild would; returns the mutation's description."""
    context = engine._contexts[vid]
    context.classifier, description = apply_mutation(
        context.classifier, "swapped-exact-leaves")
    engine._certify(context)
    return description


class TestEngineIntegration:
    @pytest.mark.parametrize("mode", sorted(ENGINE_MODES))
    def test_clean_classifier_serves_compiled_in_every_mode(self, mode):
        """Eight distinct flows, cold: every engine mode serves them all
        compiled; an enforcing one holds an ``ok`` certificate for it
        and refuses nothing, a non-certifying one holds none."""
        _switch, engine, packets = _firewall_engine(**ENGINE_MODES[mode])
        engine.process_batch(packets)
        assert engine.counters.compiled_hits == len(packets)
        assert not engine.counters.classifier_fallbacks
        if ENGINE_MODES[mode]["check_compiled"] == "enforce":
            assert engine.certificates[3].ok
        else:
            assert engine.certificates == {}

    def test_enforce_refuses_corrupt_classifier(self):
        _switch, engine, packets = _firewall_engine(
            check_compiled="enforce")
        engine.process_batch(packets)
        description = _corrupt_classifier(engine)
        assert description is not None
        before = engine.counters.compiled_hits
        engine.process_batch(packets)
        assert engine.counters.compiled_hits == before
        assert engine.counters.classifier_fallbacks["uncertified"] == \
            len(packets)
        assert not engine.certificates[3].ok

    def test_invalidate_clears_certificates(self):
        _switch, engine, packets = _firewall_engine(
            check_compiled="enforce")
        engine.process_batch(packets)
        assert engine.certificates
        engine.invalidate(3)
        assert engine.certificates == {}   # and with it any refusal

    def test_bad_mode_rejected(self):
        switch = Switch.build().create()
        with pytest.raises(ValueError, match="check_compiled"):
            BatchEngine(switch.pipeline, check_compiled="bogus")
        # The admission gate's "warn" is not a certification mode.
        with pytest.raises(ValueError, match="check_compiled"):
            BatchEngine(switch.pipeline, check_compiled="warn")

    def test_mode_constants(self):
        assert CERTIFY_MODES == ("enforce", "off")
        assert "uncertified" in FALLBACK_REASONS

    def test_fallback_histogram_serializes_with_published_reasons(self):
        """The observed fallback histogram only ever uses reasons from
        the vocabulary ``repro-info --json`` publishes, and is plain
        JSON-serializable data."""
        from repro.tools.info import info_dict

        _switch, engine, packets = _firewall_engine(
            check_compiled="enforce")
        engine.process_batch(packets)
        _corrupt_classifier(engine)
        engine.process_batch(packets)
        histogram = engine.counters.classifier_fallbacks
        assert histogram["uncertified"] == len(packets)
        published = info_dict()["engine"]["fallback_reasons"]
        assert set(histogram) <= set(published)
        assert json.loads(json.dumps(histogram)) == histogram


# ---------------------------------------------------------------------------
# Surfaces: Switch.analyze() and repro-verify --classifier
# ---------------------------------------------------------------------------

class TestSurfaces:
    def test_switch_analyze_includes_certification(self):
        switch = Switch.build().create()
        workload("firewall").admit(switch, vid=3)
        workload("netcache").admit(switch, vid=4)
        report = switch.analyze()
        assert report.ok
        # Opting out skips the (relatively costly) certification.
        assert switch.analyze(certify_classifiers=False).ok

    def test_repro_verify_classifier_json(self, capsys):
        from repro.tools.verify import main

        assert main(["--builtin", "firewall", "--classifier",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert "firewall:classifier" in data["reports"]
        certificate = data["certificates"]["firewall"]
        assert certificate["ok"] is True
        assert certificate["schema_version"] == CERTIFICATE_SCHEMA_VERSION

    def test_repro_verify_classifier_text(self, capsys):
        from repro.tools.verify import main

        assert main(["--builtin", "calc", "--classifier"]) == 0
        out = capsys.readouterr().out
        assert "calc:classifier: ok" in out
