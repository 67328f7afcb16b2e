"""Cost accounting: MAC closed forms, the event-driven AC oracle, the energy
model fit, sparsity, and parameter counts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evhybrid.config import RunConfig
from evhybrid.model import HybridModel
from evhybrid.numerics import Tensor
from evhybrid.profiling import (
    E_AC,
    E_MAC,
    ENERGY_DATAPOINTS,
    HYBRID_REFERENCE_POINT,
    OpCounters,
    count_dense_macs,
    count_spike_acs,
    energy_estimate,
    fit_energy_constants,
    input_sparsity,
    profile_flat_dict,
    profile_text,
)
from evhybrid.snn import ConvSpec, SNNBlock, _tap_counts, snn_backbone_forward


def arch_config(snn, ann, bridge_kernel=3, lstm=()):
    cfg = RunConfig()
    cfg.architecture.snn_layers = list(snn)
    cfg.architecture.ann_layers = list(ann)
    cfg.architecture.lstm_positions = list(lstm)
    cfg.architecture.bridge_kernel = bridge_kernel
    return cfg.validate()


def at_size(cfg, hw, t=None):
    """``cfg`` with an ``hw`` sensor and, if given, ``t`` timesteps."""
    sim = cfg.simulation
    sim.sensor_height, sim.sensor_width = hw
    if t is not None:
        sim.T = t
    return cfg.validate()


class TestDenseMacs:
    def test_one_by_one_conv_closed_form(self):
        cfg = arch_config(["1c1p0s1"], [])
        counters = count_dense_macs(at_size(cfg, (4, 4), t=1))
        # 1x1 conv, 2 input polarities, 4x4 output: 1*2*1*16
        assert counters.per_layer["snn1"].macs == 2 * 16

    def test_three_by_three_closed_form(self):
        # 3x3 conv, C_in=2, C_out=4, 8x8 output -> 9*2*4*64 = 4608 per step
        cfg = arch_config(["4c3p1s1"], [])
        counters = count_dense_macs(at_size(cfg, (8, 8), t=1))
        assert counters.per_layer["snn1"].macs == 4608

    def test_time_multiplier_on_spiking_layers(self):
        cfg = arch_config(["4c3p1s1"], [])
        a = count_dense_macs(at_size(cfg, (8, 8), t=1)).per_layer["snn1"].macs
        b = count_dense_macs(at_size(cfg, (8, 8), t=10)).per_layer["snn1"].macs
        assert b == 10 * a

    def test_counts_depend_only_on_shapes(self):
        cfg = arch_config(["4c3p1s2", "8c3p1s1"], ["8c3p1s2"])
        a = count_dense_macs(at_size(cfg, (16, 16)))
        b = count_dense_macs(at_size(cfg, (16, 16)))
        assert a.per_layer.keys() == b.per_layer.keys()
        assert a.total_macs == b.total_macs

    def test_lstm_positions_change_param_count(self):
        base = arch_config(["4c3p1s2"], ["8c3p1s1", "8c3p1s1"])
        with_lstm = arch_config(["4c3p1s2"], ["8c3p1s1", "8c3p1s1"], lstm=[2])
        assert (
            count_dense_macs(with_lstm).total_params > count_dense_macs(base).total_params
        )

    def test_gen1_default_parameter_count_near_published_scale(self):
        # head and embedding details differ from the published 6.6M model,
        # so the band is generous
        cfg = RunConfig().validate()
        total = count_dense_macs(cfg).total_params
        assert 1e6 < total < 1e7
        assert abs(total - 6.6e6) / 6.6e6 < 0.25

    def test_analytic_params_match_model(self):
        cfg = arch_config(["4c3p1s2", "8c3p1s1"], ["8c3p1s2"], lstm=[1])
        counters = count_dense_macs(at_size(cfg, (16, 16)))
        model = HybridModel(cfg, seed=0)
        for name, blk in model._named_blocks():
            lc = counters.per_layer[name]
            assert lc.params == sum(p.size for p in blk.parameters().values())
            assert lc.macs > 0
        assert counters.total_params == sum(p.size for p in model.parameters().values())


def brute_force_acs(mask, k, stride, padding, c_out, groups):
    """Event-driven oracle: walk every nonzero cell and its reachable taps."""
    t, c_in, h, w = mask.shape
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (w + 2 * padding - k) // stride + 1
    total = 0
    for tt in range(t):
        for cc in range(c_in):
            for y in range(h):
                for x in range(w):
                    if not mask[tt, cc, y, x]:
                        continue
                    taps = 0
                    for ky in range(k):
                        for kx in range(k):
                            ny, nx = y + padding - ky, x + padding - kx
                            if ny % stride or nx % stride:
                                continue
                            oy, ox = ny // stride, nx // stride
                            if 0 <= oy < h_out and 0 <= ox < w_out:
                                taps += 1
                    total += taps * (c_out // groups)
    return total


class TestSpikeACs:
    def test_zero_spikes_zero_acs(self):
        assert ConvSpec(4, kernel=3, padding=1, stride=1).accumulates(np.zeros((3, 2, 6, 6), dtype=bool)) == 0

    def test_single_center_spike_tap_count(self):
        mask = np.zeros((1, 1, 9, 9), dtype=bool)
        mask[0, 0, 4, 4] = True
        assert ConvSpec(8, kernel=3, padding=1, stride=1).accumulates(mask) == 9 * 8

    @given(
        seed=st.integers(0, 2**31 - 1),
        stride=st.sampled_from([1, 2]),
        padding=st.sampled_from([0, 1]),
        k=st.sampled_from([1, 3]),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_brute_force_oracle(self, seed, stride, padding, k):
        rng = np.random.default_rng(seed)
        mask = rng.random((2, 3, 7, 8)) < 0.15
        c_out = 6
        got = ConvSpec(c_out, kernel=k, padding=padding, stride=stride).accumulates(mask)
        assert got == brute_force_acs(mask, k, stride, padding, c_out, 1)

    def test_multi_count_bins_charged_once(self):
        counts = np.zeros((1, 1, 5, 5), dtype=np.int64)
        counts[0, 0, 2, 2] = 7  # several events in one bin still one cell
        assert ConvSpec(1, kernel=3, padding=1, stride=1).accumulates(counts != 0) == 9

    def test_traced_forward_wires_into_counter(self):
        rng = np.random.default_rng(5)
        block = SNNBlock(2, ConvSpec.from_string("4c3p1s2"), rng)
        x = rng.poisson(0.2, (3, 2, 8, 8)).astype(np.float32)
        trace = []
        snn_backbone_forward(Tensor(x), [block], trace=trace)
        counters = count_spike_acs(trace)
        assert counters.per_layer["snn1"].input_spikes == int((x != 0).sum())
        assert counters.total_acs == brute_force_acs(x != 0, 3, 2, 1, 4, 1)

    def test_per_block_traces_count_as_one_stack_trace(self):
        # one trace per block call, renamed through its first entry, as a
        # layer-by-layer caller records them, over three windows
        rng = np.random.default_rng(6)
        blocks = [SNNBlock(c, ConvSpec.from_string(spec), rng) for c, spec in ((2, "4c3p1s2"), (4, "6c3p1s1"))]
        for blk in blocks:
            blk.conv_w.data *= 4  # so that the first block fires into the second
        whole, per_block = [], []
        for _ in range(3):
            x = Tensor(rng.poisson(0.3, (3, 2, 8, 8)).astype(np.float32))
            snn_backbone_forward(x, blocks, trace=whole)
            for i, blk in enumerate(blocks, start=1):
                trace = []
                x = snn_backbone_forward(x, [blk], trace=trace)
                trace[0]["name"] = f"snn{i}"
                per_block += trace
        want, got = count_spike_acs(whole), count_spike_acs(per_block)
        assert want.per_layer["snn2"].acs > 0
        assert {k: vars(v) for k, v in got.per_layer.items()} == {k: vars(v) for k, v in want.per_layer.items()}

    def test_multi_window_trace_gives_the_rounded_per_window_mean(self):
        trace = [
            {"name": "snn1", "acs": a, "input_spikes": n, "cells": 100}
            for a, n in ((10, 3), (20, 4), (31, 4))
        ]
        lc = count_spike_acs(trace).per_layer["snn1"]
        assert (lc.acs, lc.input_spikes) == (20, 4)  # 61 / 3 and 11 / 3, rounded

    def test_input_sparsity_pools_every_window(self):
        trace = [
            {"name": name, "acs": 0, "input_spikes": n, "cells": c}
            for name, n, c in (("snn1", 3, 100), ("snn2", 0, 10), ("snn1", 5, 60))
        ]
        assert input_sparsity(trace) == {"snn1": (160 - 8) / 160, "snn2": 1.0}


    @pytest.mark.parametrize("extent, k, padding, stride", [
        (7, 3, 1, 1), (8, 3, 1, 2), (9, 5, 2, 2), (6, 3, 3, 2), (5, 1, 2, 1), (7, 3, 4, 2), (4, 5, 0, 3),
    ])
    def test_tap_counts_match_per_coordinate_loop(self, extent, k, padding, stride):
        out_extent = (extent + 2 * padding - k) // stride + 1
        want = [
            sum(1 for kk in range(k) if (i + padding - kk) % stride == 0
                and 0 <= (i + padding - kk) // stride < out_extent)
            for i in range(extent)
        ]
        got = _tap_counts(extent, out_extent, k, padding, stride)
        assert got.dtype == np.int64
        assert got.tolist() == want


class TestEnergyModel:
    def test_zero_counters_zero_energy(self):
        assert energy_estimate(OpCounters()) == 0.0

    def test_fit_recovers_documented_defaults(self):
        e_mac, e_ac = fit_energy_constants()
        assert e_mac == pytest.approx(E_MAC, abs=0.01e-12)
        assert e_ac == pytest.approx(E_AC, abs=0.01e-12)

    def test_reference_points_within_ten_percent(self):
        for name, macs, acs, joules in ENERGY_DATAPOINTS:
            counters = OpCounters()
            lc = counters.layer(name)
            lc.macs, lc.acs = int(macs), int(acs)
            est = energy_estimate(counters)
            assert abs(est - joules) / joules < 0.10, name

    def test_hybrid_reference_point(self):
        # 1.6e9 MACs + 1.0e9 ACs land at 3.1 mJ within 5%
        _, macs, acs, joules = HYBRID_REFERENCE_POINT
        counters = OpCounters()
        lc = counters.layer("hybrid")
        lc.macs, lc.acs = int(macs), int(acs)
        est = energy_estimate(counters)
        assert abs(est - joules) / joules < 0.05

    def test_snn_only_point(self):
        # 2.3e9 ACs alone: about 0.87 mJ against the published 0.9 mJ
        counters = OpCounters()
        counters.layer("snn").acs = int(2.3e9)
        est = energy_estimate(counters)
        assert est == pytest.approx(0.874e-3, rel=0.01)

    def test_linear_and_monotone(self):
        a, b = OpCounters(), OpCounters()
        a.layer("l").macs = 100
        b.layer("l").macs = 200
        assert energy_estimate(b) == pytest.approx(2 * energy_estimate(a))

    def test_merge_is_order_independent(self):
        a, b = OpCounters(), OpCounters()
        a.layer("x").macs = 5
        a.layer("y").acs = 7
        b.layer("y").acs = 3
        b.layer("z").params = 11
        ab, ba = a.merge(b), b.merge(a)
        assert {k: vars(v) for k, v in ab.per_layer.items()} == {
            k: vars(v) for k, v in ba.per_layer.items()
        }


class TestReport:
    def test_layer_block_lines_and_keys(self):
        counters = OpCounters()
        lc = counters.layer("snn1")
        lc.macs, lc.acs, lc.input_spikes, lc.params = 1, 2, 3, 4
        sparsity = {"snn1": 0.5}
        lines = profile_text(counters, sparsity).splitlines()
        assert lines[2:8] == [
            "layer: snn1", "  macs: 1", "  acs: 2", "  input_spikes: 3", "  params: 4",
            "  input_sparsity: 0.500000",
        ]
        flat = profile_flat_dict(counters, sparsity)
        assert {k: v for k, v in flat.items() if k.startswith("snn1.")} == {
            "snn1.macs": 1, "snn1.acs": 2, "snn1.input_spikes": 3, "snn1.params": 4,
            "snn1.input_sparsity": 0.5,
        }
