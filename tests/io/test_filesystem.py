"""Tests for the filesystem models and Equation 1."""

import pytest

from repro.io.filesystem import (
    PAPER_SAMPLE_MB,
    FilesystemSpec,
    cori_datawarp,
    cori_lustre,
    pizdaint_lustre,
    required_bandwidth_per_node,
)


class TestEquation1:
    def test_paper_worked_example(self):
        """b=1, S=8 MB, t=0.129 s -> 62 MB/s/node."""
        bw = required_bandwidth_per_node(1, PAPER_SAMPLE_MB, 0.129)
        assert bw == pytest.approx(62.0, rel=0.01)

    def test_scales_with_batch(self):
        assert required_bandwidth_per_node(4) == pytest.approx(
            4 * required_bandwidth_per_node(1)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            required_bandwidth_per_node(0)
        with pytest.raises(ValueError):
            required_bandwidth_per_node(1, -1.0)
        with pytest.raises(ValueError):
            required_bandwidth_per_node(1, 8.0, 0.0)


class TestPresets:
    def test_cori_lustre_hardware_numbers(self):
        fs = cori_lustre()
        assert fs.n_targets == 248
        assert fs.aggregate_bandwidth_GBps == pytest.approx(700.0)
        assert fs.stripe_targets == 64
        assert fs.stripe_size_MB == 1.0

    def test_cori_datawarp_hardware_numbers(self):
        fs = cori_datawarp()
        assert fs.n_targets == 288
        assert fs.aggregate_bandwidth_GBps == pytest.approx(1700.0)
        assert fs.stripe_targets == 125
        assert fs.stripe_size_MB == 8.0

    def test_pizdaint_hardware_numbers(self):
        fs = pizdaint_lustre()
        assert fs.n_targets == 40
        assert fs.aggregate_bandwidth_GBps == pytest.approx(112.0)
        assert fs.stripe_targets == 16

    def test_ost_feeds_46_nodes(self):
        """Paper: a nominal 2.8 GB/s OST can feed 46 nodes at 62 MB/s."""
        fs = cori_lustre()
        assert fs.nodes_fed_per_target(62.0) == pytest.approx(45.5, rel=0.02)


class TestScalingBehaviour:
    REQUIRED = 62.0  # MB/s/node, Eq. 1

    def test_lustre_single_node_unconstrained(self):
        """One reader comfortably exceeds Equation 1's 62 MB/s —
        the single-node baseline is never I/O bound."""
        assert cori_lustre().per_node_bandwidth_MBps(1) > self.REQUIRED

    def test_lustre_feeds_128_nodes_marginally(self):
        """At 128 nodes Lustre delivers ~45 MB/s/node (the paper's
        measured 179 ms step), below the 62 MB/s needed."""
        bw = cori_lustre().per_node_bandwidth_MBps(128)
        assert bw == pytest.approx(44.7, rel=0.05)
        assert bw < self.REQUIRED

    def test_lustre_1024_matches_paper_knee(self):
        """~36 MB/s/node at 1024 -> 222 ms steps -> <58% efficiency."""
        bw = cori_lustre().per_node_bandwidth_MBps(1024)
        assert bw == pytest.approx(35.9, rel=0.05)

    def test_lustre_collapses_at_scale(self):
        fs = cori_lustre()
        assert fs.per_node_bandwidth_MBps(8192) < 10.0

    def test_datawarp_feeds_8192_nodes(self):
        """DataWarp's usable bandwidth exceeds 8192 nodes' demand."""
        fs = cori_datawarp()
        assert fs.per_node_bandwidth_MBps(8192) > 47.0  # demand at 168 ms steps

    def test_datawarp_beats_lustre_everywhere(self):
        bb, lustre = cori_datawarp(), cori_lustre()
        for n in (1, 128, 1024, 8192):
            assert bb.per_node_bandwidth_MBps(n) > lustre.per_node_bandwidth_MBps(n)

    def test_pizdaint_44pct_at_512(self):
        """Piz Daint Lustre at 512 nodes delivers ~44% of the single-node
        demand (44.7 MB/s for a 179 ms GPU step)."""
        fs = pizdaint_lustre()
        demand = required_bandwidth_per_node(1, 8.0, 0.179)
        eff = fs.per_node_bandwidth_MBps(512) / demand
        assert 0.35 < eff < 0.55

    def test_per_node_bandwidth_monotone_in_nodes(self):
        fs = cori_lustre()
        bws = [fs.per_node_bandwidth_MBps(n) for n in (1, 64, 512, 4096)]
        assert all(a >= b for a, b in zip(bws, bws[1:]))


class TestSpecValidation:
    def test_validation(self):
        with pytest.raises(ValueError):
            FilesystemSpec("x", 0, 1.0, 1, 1.0, 10.0)
        with pytest.raises(ValueError):
            FilesystemSpec("x", 4, 1.0, 8, 1.0, 10.0)  # stripe > targets
        with pytest.raises(ValueError):
            FilesystemSpec("x", 4, 1.0, 2, 1.0, 10.0, efficiency=0.0)
        with pytest.raises(ValueError):
            FilesystemSpec("x", 4, 1.0, 2, 1.0, 10.0, contention_per_doubling=-0.1)
        with pytest.raises(ValueError):
            cori_lustre().per_node_bandwidth_MBps(0)
        with pytest.raises(ValueError):
            cori_lustre().nodes_fed_per_target(0.0)
        with pytest.raises(ValueError):
            cori_lustre().max_nodes_fed(-1.0)
