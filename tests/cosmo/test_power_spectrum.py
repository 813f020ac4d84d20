"""Tests for the linear power spectrum and growth factor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosmo.power_spectrum import (
    PowerSpectrum,
    bbks_transfer,
    growth_factor,
    tophat_window,
)


class TestTophatWindow:
    def test_limit_at_zero(self):
        assert tophat_window(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_small_argument_continuity(self):
        assert tophat_window(np.array([1e-7]))[0] == pytest.approx(1.0, abs=1e-6)

    def test_decays(self):
        x = np.array([0.1, 1.0, 10.0])
        w = np.abs(tophat_window(x))
        assert w[0] > w[1] > w[2]

    def test_known_value(self):
        # W(pi) = 3(0 - pi*(-1))/pi^3 = 3/pi^2
        assert tophat_window(np.array([np.pi]))[0] == pytest.approx(3.0 / np.pi**2)


class TestBBKSTransfer:
    def test_unity_at_large_scales(self):
        assert bbks_transfer(np.array([1e-6]), 0.31)[0] == pytest.approx(1.0, abs=1e-3)

    def test_monotone_decreasing(self):
        k = np.geomspace(1e-4, 10, 50)
        t = bbks_transfer(k, 0.31)
        assert np.all(np.diff(t) < 0)

    def test_omega_m_shifts_turnover(self):
        """Higher ΩM moves the turnover to smaller scales: at fixed k
        within the turnover region, T is larger for larger ΩM."""
        k = np.array([0.1])
        assert bbks_transfer(k, 0.35)[0] > bbks_transfer(k, 0.25)[0]


class TestGrowthFactor:
    def test_normalized_today(self):
        assert growth_factor(1.0, 0.3089) == pytest.approx(1.0)

    def test_monotone_in_a(self):
        ds = [growth_factor(a, 0.31) for a in (0.25, 0.5, 0.75, 1.0)]
        assert all(x < y for x, y in zip(ds, ds[1:]))

    def test_eds_limit_is_linear(self):
        """For ΩM = 1 (EdS), D(a) = a exactly."""
        for a in (0.3, 0.5, 0.8):
            assert growth_factor(a, 1.0) == pytest.approx(a, rel=1e-4)

    def test_lcdm_suppressed_growth(self):
        """Dark energy suppresses late growth: D(a) > a for a < 1."""
        assert growth_factor(0.5, 0.3) > 0.5

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            growth_factor(0.0, 0.3)
        with pytest.raises(ValueError):
            growth_factor(0.5, 0.0)


class TestPowerSpectrum:
    def test_sigma8_normalization_exact(self):
        for s8 in (0.78, 0.8159, 0.95):
            ps = PowerSpectrum(sigma_8=s8)
            assert ps.sigma_r(8.0) == pytest.approx(s8, rel=1e-6)

    def test_amplitude_scales_with_sigma8_squared(self):
        k = np.array([0.1])
        lo = PowerSpectrum(sigma_8=0.78)(k)[0]
        hi = PowerSpectrum(sigma_8=0.95)(k)[0]
        assert hi / lo == pytest.approx((0.95 / 0.78) ** 2, rel=1e-6)

    def test_ns_tilts_spectrum(self):
        """Larger ns boosts small scales relative to large scales."""
        blue = PowerSpectrum(n_s=1.0)
        red = PowerSpectrum(n_s=0.9)
        k_lo, k_hi = np.array([0.01]), np.array([1.0])
        ratio_blue = blue(k_hi)[0] / blue(k_lo)[0]
        ratio_red = red(k_hi)[0] / red(k_lo)[0]
        assert ratio_blue > ratio_red

    def test_zero_mode_is_zero(self):
        assert PowerSpectrum()(np.array([0.0]))[0] == 0.0

    def test_positive_everywhere(self):
        k = np.geomspace(1e-4, 100, 100)
        assert np.all(PowerSpectrum()(k) > 0)

    def test_sigma_r_decreases_with_radius(self):
        ps = PowerSpectrum()
        assert ps.sigma_r(4.0) > ps.sigma_r(8.0) > ps.sigma_r(16.0)

    def test_at_redshift_scales_by_growth(self):
        ps = PowerSpectrum()
        z1 = ps.at_redshift(1.0)
        d = growth_factor(0.5, ps.omega_m)
        k = np.array([0.1])
        assert z1(k)[0] / ps(k)[0] == pytest.approx(d**2, rel=1e-5)

    def test_at_redshift_zero_identity(self):
        ps = PowerSpectrum()
        k = np.array([0.05, 0.5])
        np.testing.assert_allclose(ps.at_redshift(0.0)(k), ps(k), rtol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerSpectrum(omega_m=0.0)
        with pytest.raises(ValueError):
            PowerSpectrum(sigma_8=-1.0)
        with pytest.raises(ValueError):
            PowerSpectrum().sigma_r(0.0)
        with pytest.raises(ValueError):
            PowerSpectrum().at_redshift(-1.0)

    @given(
        omega_m=st.floats(min_value=0.25, max_value=0.35),
        sigma_8=st.floats(min_value=0.78, max_value=0.95),
        n_s=st.floats(min_value=0.9, max_value=1.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_normalization_over_paper_ranges(self, omega_m, sigma_8, n_s):
        ps = PowerSpectrum(omega_m=omega_m, sigma_8=sigma_8, n_s=n_s)
        assert ps.sigma_r(8.0) == pytest.approx(sigma_8, rel=1e-5)


class TestImportCost:
    def test_cosmo_and_engine_import_without_scipy(self):
        """scipy (0.5 s, ~44 MB) is needed by ``growth_factor`` alone and
        loaded there; z > 0 channels still work in the same process."""
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro.cosmo, repro.core.engine\n"
            "assert 'scipy' not in sys.modules, 'scipy imported at module top'\n"
            "from repro.cosmo import SimulationConfig, simulate_multichannel\n"
            "sim = SimulationConfig(particle_grid=8, histogram_grid=8)\n"
            "theta = (0.31, 0.82, 0.96)\n"
            "assert simulate_multichannel(theta, sim, (0.0,)).sum() == 8**3\n"
            "assert 'scipy' not in sys.modules, 'z = 0 needs no growth factor'\n"
            "both = simulate_multichannel(theta, sim, (0.0, 1.0))\n"
            "assert both[0].sum() == both[1].sum() == 8**3\n"
            "assert both[1].var() < both[0].var()\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
