"""Tests for the performance models: DES kernel, throughput, latency,
area models, traffic generation, and the Fig. 10 timeline."""

import pytest

from repro.area import AsicAreaModel, FpgaResourceModel, TABLE4_REFERENCE
from repro.fabric import Fabric
from repro.modules import calc
from repro.runtime import TofinoModel
from repro.sim import (
    CORUNDUM_LATENCY,
    CORUNDUM_OPTIMIZED,
    CORUNDUM_UNOPTIMIZED,
    NETFPGA_LATENCY,
    NETFPGA_OPTIMIZED,
    FabricTimelineExperiment,
    PipelineDes,
    Simulator,
    throughput_at,
    throughput_sweep,
)
from repro.sim.kernel import SimulationError
from repro.sim.perf_model import FIG11A_SIZES, FIG11BCD_SIZES
from repro.traffic import (
    PacketGenerator,
    SizeSweep,
    TrafficMatrix,
    mixed_module_stream,
)
from repro.traffic.workloads import fig10_workload


class TestSimulatorKernel:
    def test_events_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_fifo_for_simultaneous_events(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(5))
        sim.run(until=2.0)
        assert log == [1]
        assert sim.now == 2.0
        sim.run()
        assert log == [1, 5]

    def test_simultaneous_events_never_compare_callbacks(self):
        # Heap order is decided on (time, seq) alone: callbacks that
        # refuse every comparison still fire, first scheduled first.
        log = []

        class Unorderable:
            def __init__(self, tag):
                self.tag = tag

            def __call__(self):
                log.append(self.tag)

            def __lt__(self, other):
                raise AssertionError("the heap compared two callbacks")

            __gt__ = __le__ = __ge__ = __lt__

        sim = Simulator()
        for tag in range(6):
            sim.schedule(1.0, Unorderable(tag))
        sim.schedule(0.5, Unorderable("early"))
        sim.run()
        assert log == ["early", 0, 1, 2, 3, 4, 5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule(1.0, lambda: log.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert log == ["first", "second"]
        assert sim.now == 2.0


class TestThroughputModel:
    def test_fig11a_line_rate_from_96B(self):
        # Paper: "Menshen achieves a rate of 10 Gbit/s after a packet
        # size of 96 bytes" (capped by the 10G test port).
        for point in throughput_sweep(NETFPGA_OPTIMIZED, FIG11A_SIZES):
            if point.size >= 96:
                assert point.l1_gbps == pytest.approx(10.0)

    def test_fig11a_l2_below_l1(self):
        for point in throughput_sweep(NETFPGA_OPTIMIZED, FIG11A_SIZES):
            assert point.l2_gbps < point.l1_gbps

    def test_fig11b_100g_at_256B(self):
        # Paper: "optimized Menshen on Corundum achieves 100 Gbit/s at
        # 256 bytes".
        point = throughput_at(CORUNDUM_OPTIMIZED, 256)
        assert point.l1_gbps == pytest.approx(100.0)
        assert point.line_limited
        # Below 256 B the pipeline is the bottleneck.
        assert not throughput_at(CORUNDUM_OPTIMIZED, 70).line_limited

    def test_fig11c_unoptimized_caps_near_80g(self):
        # Paper: "unoptimized Menshen can only achieve 80 Gbit/s at
        # MTU-size packets".
        point = throughput_at(CORUNDUM_UNOPTIMIZED, 1500)
        assert 70.0 <= point.l1_gbps <= 85.0
        assert point.bottleneck == "deparser"

    def test_optimizations_strictly_help(self):
        for size in FIG11BCD_SIZES:
            opt = throughput_at(CORUNDUM_OPTIMIZED, size)
            unopt = throughput_at(CORUNDUM_UNOPTIMIZED, size)
            assert opt.l1_gbps >= unopt.l1_gbps, size

    def test_throughput_monotonic_in_size(self):
        series = throughput_sweep(CORUNDUM_UNOPTIMIZED, FIG11BCD_SIZES)
        l1 = [p.l1_gbps for p in series]
        assert l1 == sorted(l1)

    def test_mpps_decreasing_in_size(self):
        series = throughput_sweep(CORUNDUM_OPTIMIZED, FIG11BCD_SIZES)
        pps = [p.pps_millions for p in series]
        assert pps == sorted(pps, reverse=True)


class TestDesCrossValidation:
    @pytest.mark.parametrize("size", [70, 256, 1500])
    def test_des_matches_analytic_optimized(self, size):
        des = PipelineDes(CORUNDUM_OPTIMIZED).run(size)
        analytic = CORUNDUM_OPTIMIZED.pipeline_pps(size)
        assert des.pps == pytest.approx(analytic, rel=0.05)

    @pytest.mark.parametrize("size", [70, 512, 1500])
    def test_des_matches_analytic_unoptimized(self, size):
        des = PipelineDes(CORUNDUM_UNOPTIMIZED).run(size)
        analytic = CORUNDUM_UNOPTIMIZED.pipeline_pps(size)
        assert des.pps == pytest.approx(analytic, rel=0.05)

    def test_des_matches_analytic_netfpga(self):
        des = PipelineDes(NETFPGA_OPTIMIZED).run(64)
        analytic = NETFPGA_OPTIMIZED.pipeline_pps(64)
        assert des.pps == pytest.approx(analytic, rel=0.05)


class TestLatencyModel:
    def test_published_calibration_points(self):
        # §5.2: 64 B -> 79 cycles (505.6 ns) NetFPGA, 106 (424 ns) Corundum.
        assert NETFPGA_LATENCY.cycles(64) == pytest.approx(79)
        assert NETFPGA_LATENCY.latency_ns(64) == pytest.approx(505.6)
        assert CORUNDUM_LATENCY.cycles(64) == pytest.approx(106)
        assert CORUNDUM_LATENCY.latency_ns(64) == pytest.approx(424.0)
        assert NETFPGA_LATENCY.cycles(1500) == pytest.approx(146)
        assert CORUNDUM_LATENCY.cycles(1500) == pytest.approx(112)

    def test_latency_increases_with_size(self):
        assert NETFPGA_LATENCY.cycles(1500) > NETFPGA_LATENCY.cycles(64)

    def test_fullrate_latency_fig11d_range(self):
        # Fig. 11d: ~1.0-1.25 us across the size sweep at full rate.
        for size in FIG11BCD_SIZES:
            us = CORUNDUM_LATENCY.fullrate_latency_us(size)
            assert 0.9 <= us <= 1.3, (size, us)

    def test_fullrate_exceeds_unloaded(self):
        for size in (70, 1500):
            assert CORUNDUM_LATENCY.fullrate_cycles(size) > \
                CORUNDUM_LATENCY.cycles(size)


class TestAsicAreaModel:
    def test_reproduces_published_overheads(self):
        report = AsicAreaModel().report()
        assert report["parser_overhead_pct"] == pytest.approx(18.5, abs=0.1)
        assert report["deparser_overhead_pct"] == pytest.approx(7.0, abs=0.1)
        assert report["stage_overhead_pct"] == pytest.approx(20.9, abs=0.1)
        assert report["pipeline_overhead_pct"] == pytest.approx(11.4, abs=0.5)
        assert report["chip_level_overhead_pct"] == pytest.approx(5.7,
                                                                  abs=0.3)

    def test_reproduces_published_totals(self):
        report = AsicAreaModel().report()
        assert report["rmt_total_mm2"] == pytest.approx(9.71, abs=0.05)
        assert report["menshen_total_mm2"] == pytest.approx(10.81, abs=0.05)

    def test_overhead_shrinks_with_bigger_tables(self):
        # §5.2: "With much larger number of entries in lookup tables...
        # Menshen's additional chip area will be negligible."
        base = AsicAreaModel()
        big = base.with_params(match_entries_per_stage=512,
                               vliw_entries_per_stage=512)
        assert big.overheads()["stage"] < base.overheads()["stage"]
        assert big.overheads()["pipeline"] < base.overheads()["pipeline"]

    def test_overhead_grows_with_module_count(self):
        # §3.1: "area overhead increases as we increase the number of
        # simultaneous programming modules".
        base = AsicAreaModel()
        more = base.with_params(parser_table_depth=64,
                                key_extractor_depth=64, key_mask_depth=64,
                                segment_table_depth=64)
        assert more.overheads()["pipeline"] > base.overheads()["pipeline"]


class TestFpgaResourceModel:
    def test_rmt_rows_calibrated(self):
        n = FpgaResourceModel.netfpga()
        assert n.luts(False) == pytest.approx(
            TABLE4_REFERENCE["rmt_on_netfpga"][0], rel=0.01)
        c = FpgaResourceModel.corundum()
        assert c.luts(False) == pytest.approx(
            TABLE4_REFERENCE["rmt_on_corundum"][0], rel=0.01)

    def test_menshen_lut_delta_small(self):
        # Table 4: +160 LUTs (NetFPGA) / +217 (Corundum); model ~200.
        for model in (FpgaResourceModel.netfpga(),
                      FpgaResourceModel.corundum()):
            delta = model.luts(True) - model.luts(False)
            assert 100 <= delta <= 300
            assert model.lut_overhead_pct() < 1.0

    def test_bram_delta_at_most_one_block(self):
        # Table 4 reports zero BRAM delta; the model may round up once.
        for model in (FpgaResourceModel.netfpga(),
                      FpgaResourceModel.corundum()):
            assert model.brams(True) - model.brams(False) <= 1.0


class TestTrafficGeneration:
    def test_exact_sizes(self):
        gen = PacketGenerator(vid=3)
        for size in SizeSweep.corundum().sizes:
            assert len(gen.packet(size)) == size

    def test_sequence_numbers(self):
        gen = PacketGenerator(vid=3)
        packets = gen.burst(64, 5)
        seqs = [p.read_int(46, 4) for p in packets]
        assert seqs == [0, 1, 2, 3, 4]

    def test_timestamps_from_rate(self):
        gen = PacketGenerator(vid=1)
        stream = list(gen.stream(64, 3, rate_pps=100.0))
        times = [p.arrival_time for p in stream]
        assert times == pytest.approx([0.0, 0.01, 0.02])

    def test_too_small_rejected(self):
        from repro.errors import PacketError
        with pytest.raises(PacketError):
            PacketGenerator(vid=1).packet(50)

    def test_mixed_stream_ratio(self):
        packets = mixed_module_stream({1: 5, 2: 3, 3: 2}, 64, 100)
        from repro.rmt.parser import extract_module_id
        counts = {}
        for p in packets:
            vid = extract_module_id(p)
            counts[vid] = counts.get(vid, 0) + 1
        assert counts == {1: 50, 2: 30, 3: 20}

    def test_fig10_workload_split(self):
        loads = dict(fig10_workload(link_gbps=9.3))
        assert loads[1] == pytest.approx(9.3e9 * 0.5)
        assert loads[2] == pytest.approx(9.3e9 * 0.3)
        assert loads[3] == pytest.approx(9.3e9 * 0.2)


class TestFig10Timeline:
    """Fig. 10 on a one-switch fabric timeline: each calc module enters
    on host port 0 and leaves on its own port."""

    def build(self):
        fabric = Fabric()
        fabric.add_switch("sw0")
        matrix = TrafficMatrix()
        for vid, bps in fig10_workload():
            fabric.tenant(
                f"calc{vid}", calc.P4_SOURCE, vid=vid,
                installer=lambda tenant, port: calc.install(tenant, port=port),
            ).place(("sw0", 0), ("sw0", vid))
            matrix.add(vid, ("sw0", 0), ("sw0", vid), offered_bps=bps,
                       packet_size=1500,
                       make_packet=lambda vid=vid: calc.make_packet(
                           vid, calc.OP_ADD, 1, 2, pad_to=1500))
        return FabricTimelineExperiment(fabric, matrix, duration_s=3.0,
                                        bin_s=0.1, scale=1000.0)

    def test_other_modules_undisturbed(self):
        exp = self.build()
        exp.schedule_reconfig(1, start_s=0.5, duration_s=1.5)
        result = exp.run()
        # Modules 2 and 3 never dip below ~90% of their offered rate.
        for vid in (2, 3):
            offered = result.offered_gbps[vid]
            interior = result.throughput_gbps[vid][1:-1]
            assert min(interior) >= 0.9 * offered, vid

    def test_updated_module_drops_during_window(self):
        exp = self.build()
        exp.schedule_reconfig(1, start_s=0.5, duration_s=1.5)
        result = exp.run()
        inside = result.throughput_inside(1, (0.6, 1.9))
        assert inside and max(inside) == 0.0
        # ... and recovers afterwards: the last three bins of the
        # offered 3 s.
        tail = result.throughput_gbps[1][27:30]
        assert min(tail) >= 0.9 * result.offered_gbps[1]

    def test_tofino_baseline_disrupts_everyone(self):
        exp = self.build()
        model = TofinoModel()
        stalled = model.update_disruption([1, 2, 3], 1)
        for vid in stalled:
            exp.schedule_reconfig(vid, 0.5, model.disruption_window_s())
        result = exp.run()
        # During fast refresh all modules lose packets.
        assert stalled == {1, 2, 3}
        assert all(result.drops.get(vid, 0) > 0 for vid in stalled)

    def test_tofino_baseline_recovers_after_fast_refresh(self):
        """The stall lasts one 50 ms window: the bins before it and
        every bin from 0.6 s on carry ~all of the offered rate."""
        exp = self.build()
        model = TofinoModel()
        for vid in model.update_disruption([1, 2, 3], 1):
            exp.schedule_reconfig(vid, 0.5, model.disruption_window_s())
        result = exp.run()
        for vid in (1, 2, 3):
            offered = result.offered_gbps[vid]
            before = result.throughput_gbps[vid][1:5]
            after = result.throughput_gbps[vid][6:30]
            assert min(before + after) >= 0.9 * offered, vid

    def test_apply_callback_invoked(self):
        exp = self.build()
        called = []
        exp.schedule_reconfig(1, 0.5, 1.0, apply=lambda: called.append(1))
        exp.run()
        assert called == [1]

    def test_apply_fires_at_its_time_without_traffic(self):
        """A window's action runs at its event time, even for a VID
        that offers no packet at all."""
        exp = self.build()
        fired = []
        exp.schedule_reconfig(7, 0.5, 0.0,
                              apply=lambda: fired.append(exp.core.sim.now))
        result = exp.run()
        assert fired == [0.5]
        assert 7 not in result.delivered and 7 not in result.drops
