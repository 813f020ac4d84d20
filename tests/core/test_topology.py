"""Tests for the CosmoFlow topology and presets."""

import numpy as np
import pytest

from repro.core.topology import (
    ConvSpec,
    CosmoFlowConfig,
    PRESETS,
    build_network,
    default_parameter_space,
    paper_128,
    ravanbakhsh_64,
    scaled_32,
    tiny_16,
)


class TestPaper128:
    def test_paper_constraints(self):
        """Everything Section III-A specifies about the topology."""
        cfg = paper_128()
        assert cfg.input_size == 128
        assert cfg.n_conv == 7  # "7 convolution layers"
        assert cfg.n_fc == 3  # "3 fully-connected layers"
        assert cfg.n_pool == 3  # "three average pooling layers"
        assert cfg.n_outputs == 3  # three cosmological parameters
        # channels are multiples of 16 for SIMD vectorization
        assert all(s.out_channels % 16 == 0 for s in cfg.conv_layers)
        # channels double at each pooled stage: 16 -> 32 -> 64
        pooled = [s.out_channels for s in cfg.conv_layers if s.pool]
        assert pooled == [16, 32, 64]

    def test_spatial_progression(self):
        """The Table-I-derived spatial sizes."""
        assert paper_128().spatial_sizes() == [63, 30, 13, 11, 9, 7, 5]

    def test_flattened_size(self):
        assert paper_128().flattened_size == 5**3 * 64  # 8000

    def test_describe(self):
        text = paper_128().describe()
        assert "conv1" in text and "fc3" in text and "128^3" in text


class TestOtherPresets:
    def test_ravanbakhsh_is_smaller(self):
        cfg = ravanbakhsh_64()
        assert cfg.input_size == 64
        assert cfg.n_conv == 6  # one fewer conv
        assert cfg.n_pool == 2  # one fewer pool
        assert cfg.n_outputs == 2  # two predicted parameters

    def test_all_presets_valid(self):
        for name, factory in PRESETS.items():
            cfg = factory()
            assert cfg.name == name
            assert cfg.flattened_size > 0

    def test_scaled_presets_structure(self):
        for factory in (scaled_32, tiny_16):
            cfg = factory()
            assert cfg.n_outputs == 3
            assert all(s.out_channels % 16 == 0 for s in cfg.conv_layers)

    def test_with_outputs(self):
        cfg = tiny_16().with_outputs(2)
        assert cfg.n_outputs == 2
        assert "out2" in cfg.name


class TestValidation:
    def test_collapsing_extent_raises(self):
        # either message is fine: the conv shape check or the collapse check
        with pytest.raises(ValueError, match="collapsed|larger than"):
            CosmoFlowConfig(
                name="bad",
                input_size=8,
                conv_layers=(ConvSpec(16, 3, pool=True), ConvSpec(16, 4)),
                fc_sizes=(8,),
            )

    def test_empty_convs_raise(self):
        with pytest.raises(ValueError):
            CosmoFlowConfig(name="bad", input_size=16, conv_layers=(), fc_sizes=(8,))

    def test_bad_outputs_raise(self):
        with pytest.raises(ValueError):
            CosmoFlowConfig(
                name="bad",
                input_size=16,
                conv_layers=(ConvSpec(16, 3),),
                fc_sizes=(8,),
                n_outputs=0,
            )

    def test_tiny_input_raises(self):
        with pytest.raises(ValueError):
            CosmoFlowConfig(
                name="bad", input_size=2, conv_layers=(ConvSpec(16, 3),), fc_sizes=(8,)
            )


class TestBuildNetwork:
    def test_forward_shape(self):
        cfg = tiny_16()
        net = build_network(cfg, seed=0)
        out = net(np.zeros((2, 1, 16, 16, 16), dtype=np.float32))
        assert out.shape == (2, 3)

    def test_output_shape_matches_config(self):
        cfg = scaled_32()
        net = build_network(cfg, seed=0)
        assert net.output_shape((1, 32, 32, 32)) == (3,)

    def test_same_seed_identical_weights(self):
        a = build_network(tiny_16(), seed=42)
        b = build_network(tiny_16(), seed=42)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = build_network(tiny_16(), seed=1)
        b = build_network(tiny_16(), seed=2)
        assert any(
            not np.array_equal(pa.data, pb.data)
            for pa, pb in zip(a.parameters(), b.parameters())
        )

    def test_layer_counts(self):
        cfg = paper_128()
        net = build_network(cfg, seed=0)
        kinds = [type(l).__name__ for l in net]
        assert kinds.count("Conv3D") == 7
        assert kinds.count("AvgPool3D") == 3
        assert kinds.count("Dense") == 3
        assert kinds.count("Flatten") == 1
        # leaky ReLU after every conv and hidden FC, linear head
        assert kinds.count("LeakyReLU") == 7 + 2

    def test_default_parameter_space(self):
        assert default_parameter_space(paper_128()).n_params == 3
        assert default_parameter_space(ravanbakhsh_64()).names == ("omega_m", "sigma_8")
