"""Cost accounting: MAC closed forms, the event-driven AC oracle, the energy
model fit, sparsity, and parameter counts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evhybrid.config import RunConfig
from evhybrid.model import HybridModel
from evhybrid.numerics import Tensor
from evhybrid.profiling import (
    ENERGY_DATAPOINTS,
    HYBRID_REFERENCE_POINT,
    EnergyModel,
    OpCounters,
    count_dense_macs,
    count_spike_acs,
    energy_estimate,
    fit_energy_constants,
    profile_flat_dict,
    profile_text,
    sparsity_report,
)
from evhybrid.snn import SNNBlock, SNNBlockConfig, snn_backbone_forward


def arch_config(snn, ann, bridge_kernel=3, lstm=()):
    cfg = RunConfig()
    cfg.architecture.snn_layers = list(snn)
    cfg.architecture.ann_layers = list(ann)
    cfg.architecture.lstm_positions = list(lstm)
    cfg.architecture.bridge_kernel = bridge_kernel
    cfg.architecture.bridge_position = 0
    return cfg.validate()


class TestDenseMacs:
    def test_one_by_one_conv_closed_form(self):
        cfg = arch_config(["1c1p0s1"], [])
        cfg.architecture.head = False
        counters = count_dense_macs(cfg, input_hw=(4, 4), n_steps=1)
        # 1x1 conv, 2 input polarities, 4x4 output: 1*2*1*16
        assert counters.per_layer["snn1"].macs == 2 * 16

    def test_three_by_three_closed_form(self):
        # 3x3 conv, C_in=2, C_out=4, 8x8 output -> 9*2*4*64 = 4608 per step
        cfg = arch_config(["4c3p1s1"], [])
        cfg.architecture.head = False
        counters = count_dense_macs(cfg, input_hw=(8, 8), n_steps=1)
        assert counters.per_layer["snn1"].macs == 4608

    def test_time_multiplier_on_spiking_layers(self):
        cfg = arch_config(["4c3p1s1"], [])
        cfg.architecture.head = False
        a = count_dense_macs(cfg, input_hw=(8, 8), n_steps=1).per_layer["snn1"].macs
        b = count_dense_macs(cfg, input_hw=(8, 8), n_steps=10).per_layer["snn1"].macs
        assert b == 10 * a

    def test_counts_depend_only_on_shapes(self):
        cfg = arch_config(["4c3p1s2", "8c3p1s1"], ["8c3p1s2"])
        a = count_dense_macs(cfg, input_hw=(16, 16))
        b = count_dense_macs(cfg, input_hw=(16, 16))
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
        cfg.simulation.sensor_width = 16
        cfg.simulation.sensor_height = 16
        model = HybridModel(cfg, seed=0)
        live = sum(p.size for p in model.parameters().values())
        assert count_dense_macs(cfg).total_params == live


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
        trace = [
            {"name": "snn1", "nonzero": np.zeros((3, 2, 6, 6), dtype=bool),
             "kernel": 3, "stride": 1, "padding": 1, "out_channels": 4, "groups": 1}
        ]
        assert count_spike_acs(trace).total_acs == 0

    def test_single_center_spike_tap_count(self):
        mask = np.zeros((1, 1, 9, 9), dtype=bool)
        mask[0, 0, 4, 4] = True
        trace = [{"name": "snn1", "nonzero": mask, "kernel": 3, "stride": 1,
                  "padding": 1, "out_channels": 8, "groups": 1}]
        assert count_spike_acs(trace).total_acs == 9 * 8

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
        trace = [{"name": "l", "nonzero": mask, "kernel": k, "stride": stride,
                  "padding": padding, "out_channels": c_out, "groups": 1}]
        got = count_spike_acs(trace).total_acs
        assert got == brute_force_acs(mask, k, stride, padding, c_out, 1)

    def test_multi_count_bins_charged_once(self):
        counts = np.zeros((1, 1, 5, 5), dtype=np.int64)
        counts[0, 0, 2, 2] = 7  # several events in one bin still one cell
        trace = [{"name": "l", "nonzero": counts != 0, "kernel": 3, "stride": 1,
                  "padding": 1, "out_channels": 1, "groups": 1}]
        assert count_spike_acs(trace).total_acs == 9

    def test_traced_forward_wires_into_counter(self):
        rng = np.random.default_rng(5)
        block = SNNBlock(2, SNNBlockConfig.from_string("4c3p1s2"), rng)
        x = rng.poisson(0.2, (3, 2, 8, 8)).astype(np.float32)
        trace = []
        snn_backbone_forward(Tensor(x), [block], trace=trace)
        counters = count_spike_acs(trace)
        assert counters.per_layer["snn1"].input_spikes == int((x != 0).sum())
        assert counters.total_acs == brute_force_acs(x != 0, 3, 2, 1, 4, 1)


class TestEnergyModel:
    def test_zero_counters_zero_energy(self):
        assert energy_estimate(OpCounters(), EnergyModel()) == 0.0

    def test_fit_recovers_documented_defaults(self):
        e_mac, e_ac = fit_energy_constants()
        model = EnergyModel()
        assert e_mac == pytest.approx(model.e_mac, abs=0.01e-12)
        assert e_ac == pytest.approx(model.e_ac, abs=0.01e-12)

    def test_reference_points_within_ten_percent(self):
        model = EnergyModel()
        for name, macs, acs, joules in ENERGY_DATAPOINTS:
            counters = OpCounters()
            lc = counters.layer(name)
            lc.macs, lc.acs = int(macs), int(acs)
            est = energy_estimate(counters, model)
            assert abs(est - joules) / joules < 0.10, name

    def test_hybrid_reference_point(self):
        # 1.6e9 MACs + 1.0e9 ACs land at 3.1 mJ within 5%
        _, macs, acs, joules = HYBRID_REFERENCE_POINT
        counters = OpCounters()
        lc = counters.layer("hybrid")
        lc.macs, lc.acs = int(macs), int(acs)
        est = energy_estimate(counters, EnergyModel())
        assert abs(est - joules) / joules < 0.05

    def test_snn_only_point(self):
        # 2.3e9 ACs alone: about 0.87 mJ against the published 0.9 mJ
        counters = OpCounters()
        counters.layer("snn").acs = int(2.3e9)
        est = energy_estimate(counters, EnergyModel())
        assert est == pytest.approx(0.874e-3, rel=0.01)

    def test_linear_and_monotone(self):
        model = EnergyModel()
        a, b = OpCounters(), OpCounters()
        a.layer("l").macs = 100
        b.layer("l").macs = 200
        assert energy_estimate(b, model) == pytest.approx(2 * energy_estimate(a, model))

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
        lines = profile_text(counters, EnergyModel(), sparsity).splitlines()
        assert lines[2:8] == [
            "layer: snn1", "  macs: 1", "  acs: 2", "  input_spikes: 3", "  params: 4",
            "  input_sparsity: 0.500000",
        ]
        flat = profile_flat_dict(counters, EnergyModel(), sparsity)
        assert {k: v for k, v in flat.items() if k.startswith("snn1.")} == {
            "snn1.macs": 1, "snn1.acs": 2, "snn1.input_spikes": 3, "snn1.params": 4,
            "snn1.input_sparsity": 0.5,
        }


class TestSparsity:
    def test_extremes(self):
        assert sparsity_report(np.zeros((4, 4))) == 1.0
        assert sparsity_report(np.ones((4, 4))) == 0.0

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_bernoulli_rate(self, seed):
        rng = np.random.default_rng(seed)
        spikes = rng.random((40, 40, 40)) < 0.02
        assert sparsity_report(spikes) == pytest.approx(0.98, abs=0.005)
