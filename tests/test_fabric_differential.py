"""Fabric differential gates.

Two equivalence contracts anchor the fabric layer to the layers below:

1. **Degeneracy** — a one-switch fabric produces exactly the results a
   plain :class:`repro.api.Switch` + :class:`repro.engine.BatchEngine`
   produce for the same program, entries, and packets. The fabric adds
   topology, not semantics.
2. **Chaining** — a 2-leaf/1-spine fabric carrying two tenants is
   packet-for-packet identical to manually chaining the three
   switches' engines by hand (process a batch, drain the uplink in
   scheduler service order, re-ingress at the next switch) — per
   tenant, in order. The execution core's event timeline is
   bookkeeping over the same engine and scheduler calls, nothing more.

Both serve the fabric through ``tests/fabric_serve.py``: one inject per
packet at t = 0 on the event timeline.
"""

from fabric_serve import serve
from repro.api import Switch
from repro.fabric import Fabric, leaf_spine
from repro.modules import calc

WEIGHTS = {1: 1.0, 2: 3.0}
HOSTS = 4          # host ports per leaf
UPLINK = HOSTS     # leaf uplink port (single spine)


def calc_installer(tenant, port):
    calc.install(tenant, port=port)


def mixed_batch(rounds=40):
    """Interleaved two-tenant traffic, deterministic."""
    pkts = []
    for i in range(rounds):
        pkts.append(calc.make_packet(1, calc.OP_ADD, i, i + 1,
                                     pad_to=200))
        if i % 2 == 0:
            pkts.append(calc.make_packet(2, calc.OP_SUB, 1000 + i, i,
                                         pad_to=300))
    return pkts


class TestSingleSwitchDegeneracy:
    def test_fabric_of_one_equals_plain_switch(self):
        # fabric side: one switch, tenant "routed" host port -> host port
        fabric = Fabric()
        fabric.add_switch("sw0")
        tenant = fabric.tenant("calc", calc.P4_SOURCE, vid=1,
                               installer=calc_installer)
        assert tenant.place(("sw0", 0), ("sw0", 2)) == ["sw0"]

        # plain side: same program, entries, engine
        plain = Switch.build().create()
        handle = plain.admit("calc", calc.P4_SOURCE, vid=1)
        calc.install(handle, port=2)
        engine = plain.engine()
        plain.egress_scheduler.line_rate_bps = fabric.host_rate_bps

        batch = [calc.make_packet(1, calc.OP_ADD, i, 2 * i)
                 for i in range(32)]
        fabric_result = serve(fabric, [("sw0", p.copy()) for p in batch])
        plain_results = engine.process_batch([p.copy() for p in batch])
        plain_out = plain.pipeline.traffic_manager.drain(2)

        fabric_out = fabric_result.delivered_for(1)
        assert [p.tobytes() for p in fabric_out] == \
            [p.tobytes() for p in plain_out]
        assert fabric_result.exits(1) == \
            [("sw0", r.egress_port) for r in plain_results]
        assert fabric_result.dropped == {}
        # per-tenant pipeline counters agree too: one hop per packet
        assert tenant.counters() == handle.counters()
        assert tenant.counters().packets_in == len(fabric_out) == 32


class TestManualChainingEquivalence:
    def _fabric_outputs(self, batch):
        fabric = leaf_spine(leaves=2, spines=1, hosts_per_leaf=HOSTS)
        tenants = {}
        for vid, weight in WEIGHTS.items():
            tenant = fabric.tenant(f"calc{vid}", calc.P4_SOURCE,
                                   vid=vid, installer=calc_installer)
            tenant.place(("leaf0", vid - 1), ("leaf1", vid - 1))
            tenant.set_weight(weight)
            tenants[vid] = tenant
        result = serve(fabric, [("leaf0", p.copy()) for p in batch])
        return {vid: [p.tobytes() for p in result.delivered_for(vid)]
                for vid in WEIGHTS}, tenants

    def _chained_outputs(self, batch):
        """The same three switches, chained entirely by hand."""
        def build(num_ports):
            return Switch.build().ports(num_ports).create()

        leaf0, spine, leaf1 = build(HOSTS + 1), build(2), build(HOSTS + 1)
        engines = {}
        for sw, key in ((leaf0, "leaf0"), (spine, "spine"),
                        (leaf1, "leaf1")):
            for vid, weight in WEIGHTS.items():
                handle = sw.admit(f"calc{vid}", calc.P4_SOURCE, vid=vid)
                # leaf0 -> uplink; spine -> port 1 (faces leaf1);
                # leaf1 -> the tenant's destination host port
                port = {"leaf0": UPLINK, "spine": 1,
                        "leaf1": vid - 1}[key]
                calc.install(handle, port=port)
                handle.set_weight(weight)
            sw.egress_scheduler.line_rate_bps = 10e9
            engines[key] = sw.engine()

        engines["leaf0"].process_batch([p.copy() for p in batch])
        hop1 = leaf0.pipeline.traffic_manager.drain(UPLINK)
        for p in hop1:
            p.ingress_port = 0        # spine port 0 faces leaf0
        engines["spine"].process_batch(hop1)
        hop2 = spine.pipeline.traffic_manager.drain(1)
        for p in hop2:
            p.ingress_port = UPLINK   # leaf1's uplink port
        engines["leaf1"].process_batch(hop2)
        return {vid: [p.tobytes() for p in
                      leaf1.pipeline.traffic_manager.drain(vid - 1)]
                for vid in WEIGHTS}

    def test_two_tenant_fabric_equals_hand_chained_engines(self):
        batch = mixed_batch()
        fabric_out, tenants = self._fabric_outputs(batch)
        chained_out = self._chained_outputs(batch)
        for vid in WEIGHTS:
            assert fabric_out[vid], f"tenant {vid} delivered nothing"
            assert fabric_out[vid] == chained_out[vid]
            # three hops per delivered packet, fabric-wide
            assert tenants[vid].counters().packets_in == \
                3 * len(fabric_out[vid])

    def test_results_carry_correct_computation_end_to_end(self):
        batch = mixed_batch(rounds=10)
        fabric_out, _ = self._fabric_outputs(batch)
        from repro.net.packet import Packet
        adds = [calc.read_result(Packet(raw)) for raw in fabric_out[1]]
        assert adds == [i + (i + 1) for i in range(10)]
        subs = [calc.read_result(Packet(raw)) for raw in fabric_out[2]]
        assert subs == [1000 + i - i for i in range(0, 10, 2)]
