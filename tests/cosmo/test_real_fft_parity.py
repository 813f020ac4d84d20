"""The real-FFT simulator and estimators against the complex reference.

``tests/cosmo/complex_reference.py`` is the specification: the solver on
the half spectrum must reproduce its displacement fields to rounding
error, and — particle counts being integers — its datasets byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosmo import statistics
from repro.cosmo.dataset_builder import SimulationConfig, build_arrays, run_simulation
from repro.cosmo.initial_conditions import gaussian_random_modes, real_field
from repro.cosmo.lpt import (
    SpectralGrid,
    lpt2_displacement,
    lpt_displacement,
    zeldovich_displacement,
)
from repro.cosmo.power_spectrum import PowerSpectrum
from tests.cosmo import complex_reference as reference
from tests.cosmo import histogramdd_reference


def assert_fields_match(actual, expected, tol=1e-12):
    """``tol`` is absolute in Mpc/h for O(1) fields and relative to the
    field's largest entry beyond that (big boxes displace further)."""
    scale = max(1.0, float(np.abs(expected).max()))
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=tol * scale)


def periodic_distance(a, b, box_size):
    d = np.abs(a - b)
    return np.minimum(d, box_size - d)


class TestDisplacementParity:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([8, 9, 16, 33]),
        box_size=st.floats(32.0, 1024.0),
        omega_m=st.floats(0.25, 0.35),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_fields_and_positions_match_complex_pipeline(self, n, box_size, omega_m, seed):
        spectrum = PowerSpectrum(omega_m=omega_m)
        _, full_k = reference.gaussian_random_field(n, box_size, spectrum, rng=seed)
        half_k = gaussian_random_modes(n, box_size, spectrum, rng=seed)
        assert_fields_match(half_k, full_k[:, :, : n // 2 + 1])

        psi1 = reference.zeldovich_displacement(full_k, box_size)
        psi2 = reference.lpt2_displacement(full_k, box_size)
        assert_fields_match(zeldovich_displacement(half_k, box_size), psi1)
        assert_fields_match(lpt2_displacement(half_k, box_size), psi2)
        assert_fields_match(
            lpt_displacement(half_k, box_size, 0.8, -0.3), 0.8 * psi1 - 0.3 * psi2
        )

        theta = (omega_m, 0.8159, 0.9667)
        config = SimulationConfig(particle_grid=n, histogram_grid=8, box_size=box_size)
        moved = periodic_distance(
            run_simulation(theta, config, seed=seed),
            reference.run_simulation(theta, config, seed=seed),
            box_size,
        )
        assert moved.max() <= 1e-12 * max(1.0, box_size / 64.0)

    @pytest.mark.parametrize("n", [8, 16])
    def test_power_only_on_nyquist_planes(self, n):
        """The modes the three-case Nyquist rule exists for: a field whose
        every mode has at least one index at n/2 (planes, lines and the
        corner), where ``i k`` must vanish, ``k²`` must not, and ``k_a k_b``
        survives only where both indices are Nyquist."""
        box_size = 64.0
        full_k = np.fft.fftn(np.random.default_rng(n).standard_normal((n, n, n)))
        index = np.arange(n) == n // 2
        on_nyquist = index[:, None, None] | index[None, :, None] | index[None, None, :]
        delta = np.fft.ifftn(full_k * on_nyquist).real
        full_k, half_k = np.fft.fftn(delta), np.fft.rfftn(delta)
        assert np.abs(delta).max() > 0.1

        assert_fields_match(
            zeldovich_displacement(half_k, box_size),
            reference.zeldovich_displacement(full_k, box_size),
        )
        hess = reference.potential_hessian(full_k, box_size)
        source = sum(
            hess[a, a] * hess[b, b] - hess[a, b] ** 2 for a, b in ((0, 1), (0, 2), (1, 2))
        )
        assert np.abs(source).max() > 1e-3  # the rule is exercised, not vacuous
        assert_fields_match(SpectralGrid(n, box_size).lpt2_source(half_k), source)
        assert_fields_match(
            lpt2_displacement(half_k, box_size),
            reference.lpt2_displacement(full_k, box_size),
        )

    def test_cola_positions_match(self):
        theta = (0.31, 0.82, 0.96)
        config = SimulationConfig(
            particle_grid=16, histogram_grid=16, box_size=64.0, cola_steps=3
        )
        moved = periodic_distance(
            run_simulation(theta, config, seed=4),
            reference.run_simulation(theta, config, seed=4),
            config.box_size,
        )
        assert moved.max() <= 1e-9


#: The three simulation set-ups the benchmark workloads build their data
#: from, and an odd grid (no Nyquist planes).  ``n_sims`` is cut from the
#: workloads' 1-2 (g96) and 16 (g64) to bound the reference's cost: the
#: identity is per universe.
DATASETS = {
    "g96_h64": (1, SimulationConfig(particle_grid=96, histogram_grid=64)),
    "g64_h64": (4, SimulationConfig(particle_grid=64, histogram_grid=64)),
    "g64_h32": (4, SimulationConfig()),
    "g33_h32": (2, SimulationConfig(particle_grid=33, histogram_grid=32)),
}


def reference_density(theta, config, seed):
    """A universe's histogram from the specification alone: the complex
    solver's positions, counted by ``numpy.histogramdd``."""
    positions = reference.run_simulation(theta, config, seed)
    # The bare ``np.mod`` never landed on box_size here, so folding that
    # image to 0 changes no position on these set-ups.
    assert positions.max() < config.box_size
    return histogramdd_reference.particle_histogram(
        positions, config.histogram_grid, config.box_size
    )


class TestDatasetByteIdentity:
    # One seed per set-up in tier-1; the other two run with the slow gates.
    @pytest.mark.parametrize("seed", [0, pytest.param(7, marks=pytest.mark.slow),
                                      pytest.param(61, marks=pytest.mark.slow)])
    @pytest.mark.parametrize("name", list(DATASETS))
    def test_build_arrays_bytes_equal_complex_pipeline(self, name, seed, monkeypatch):
        n_sims, config = DATASETS[name]
        built = build_arrays(n_sims, config, seed=seed)
        monkeypatch.setattr("repro.cosmo.dataset_builder.simulate_density", reference_density)
        expected = build_arrays(n_sims, config, seed=seed)
        for got, want in zip(built, expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestEstimatorParity:
    @pytest.fixture(params=[8, 9, 16])
    def field(self, request):
        n = request.param
        delta = real_field(gaussian_random_modes(n, 64.0, PowerSpectrum(), rng=n))
        return delta + 0.3 * delta**2  # non-Gaussian: a non-zero bispectrum

    @pytest.mark.parametrize(
        "estimator, n_bins",
        [
            ("measure_power_spectrum", 16),
            ("measure_power_spectrum", 5),
            ("two_point_correlation", 12),
            ("equilateral_bispectrum", 6),
        ],
    )
    def test_matches_full_spectrum_estimator(self, field, estimator, n_bins):
        centers, values = getattr(statistics, estimator)(field, 64.0, n_bins=n_bins)
        ref_centers, ref_values = getattr(reference, estimator)(field, 64.0, n_bins=n_bins)
        np.testing.assert_array_equal(centers, ref_centers)
        assert np.isfinite(ref_values).any()
        np.testing.assert_allclose(values, ref_values, rtol=1e-10, atol=0.0, equal_nan=True)
