"""The simulator's buffers are reused; its arguments and results are not.

The spectral solver runs its transforms in place on work arrays, streams
their last passes a slab of axis-0 planes at a time, and solves
displacement components straight into the positions or the histogram.
These tests pin what a caller can rely on regardless: a public function
never writes to an argument and never returns memory it will write to
again, the streamed path equals the array path byte for byte, the peak
allocation of one universe stays under a stated number of ``n³`` arrays,
and the datasets the benchmark workloads build keep their bytes.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosmo.dataset_builder import (
    SimulationConfig,
    build_arrays,
    run_simulation,
    simulate_density,
)
from repro.cosmo.histogram import particle_histogram
from repro.cosmo.initial_conditions import (
    _slabs,
    fourier_grid,
    gaussian_random_modes,
    real_field,
)
from repro.cosmo.lpt import (
    SpectralGrid,
    _lpt_spectrum,
    displace_particles,
    lpt2_displacement,
    lpt_displacement,
    second_order_growth,
    zeldovich_displacement,
)
from repro.cosmo.nbody import ParticleMesh
from repro.cosmo.power_spectrum import PowerSpectrum

BOX = 64.0
THETA = (0.29, 0.85, 0.95)

#: Even and odd grids (no Nyquist planes on the odd ones), small enough
#: that a Hypothesis example costs milliseconds.
grids = st.sampled_from([4, 5, 8, 9, 12, 15])


def modes(n, seed):
    return gaussian_random_modes(n, BOX, PowerSpectrum(), rng=seed)


#: Every public function that takes a spectrum (or, for the PM force, a
#: real field) and returns fields solved from it.
SOLVERS = {
    "real_field": (modes, real_field),
    "zeldovich_displacement": (modes, lambda f: zeldovich_displacement(f, BOX)),
    "lpt_displacement": (modes, lambda f: lpt_displacement(f, BOX, 0.8, -0.3)),
    "lpt2_displacement": (modes, lambda f: lpt2_displacement(f, BOX)),
    "inverse_gradient": (
        modes,
        lambda f: SpectralGrid(f.shape[0], BOX).inverse_gradient(f),
    ),
    "lpt2_source": (modes, lambda f: SpectralGrid(f.shape[0], BOX).lpt2_source(f)),
    "force_field": (
        lambda n, seed: real_field(modes(n, seed)),
        lambda f: ParticleMesh(f.shape[0], BOX).force_field(f),
    ),
}


class TestOwnership:
    @pytest.mark.parametrize("name", list(SOLVERS))
    @settings(max_examples=12, deadline=None)
    @given(n=grids, seed=st.integers(0, 2**31 - 1))
    def test_argument_untouched_and_results_independent(self, name, n, seed):
        make, solve = SOLVERS[name]
        argument = make(n, seed)
        before = argument.tobytes()
        first = solve(argument)
        kept = first.tobytes()
        second = solve(argument)
        assert argument.tobytes() == before
        assert not np.shares_memory(first, argument)
        assert not np.shares_memory(second, argument)
        assert not np.shares_memory(first, second)
        # the second call wrote nothing into the first call's result
        assert first.tobytes() == kept == second.tobytes()

    def test_one_grid_serves_many_solves(self):
        """A grid's multipliers are read, never written: two spectra solved
        on one grid equal the same spectra solved on a grid each."""
        grid = SpectralGrid(8, BOX)
        for seed in (1, 2):
            field_k = modes(8, seed)
            own = SpectralGrid(8, BOX)
            for solve in ("inverse_gradient", "lpt2_source"):
                shared, fresh = getattr(grid, solve)(field_k), getattr(own, solve)(field_k)
                assert shared.tobytes() == fresh.tobytes()


def one_buffer(grid, field_k):
    """The components of ``inverse_gradient`` from the slab stream, each
    assembled in one buffer the next component overwrites."""
    buffer = np.empty((grid.n,) * 3)
    for _, planes, slab in grid._stream_gradient(field_k):
        buffer[planes] = slab
        if planes.stop == grid.n:
            yield buffer


class TestStreamedComponents:
    @settings(max_examples=20, deadline=None)
    @given(n=grids, seed=st.integers(0, 2**31 - 1))
    def test_stream_equals_inverse_gradient_rows(self, n, seed):
        grid = SpectralGrid(n, BOX)
        field_k = modes(n, seed)
        psi = grid.inverse_gradient(field_k)
        rows = np.full((3, n, n, n), np.nan)
        visited = []
        for axis, planes, slab in grid._stream_gradient(field_k.copy()):
            rows[axis][planes] = slab
            visited.append((axis, planes))
        assert visited == [(axis, planes) for axis in range(3) for planes in _slabs(n)]
        assert rows.tobytes() == psi.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(n=grids, seed=st.integers(0, 2**31 - 1), d1=st.floats(0.1, 2.0))
    def test_displace_particles_array_equals_generator(self, n, seed, d1):
        grid = SpectralGrid(n, BOX)
        field_k = modes(n, seed)
        psi = grid.inverse_gradient(field_k)
        from_array = displace_particles(psi, BOX, d1)
        from_stream = displace_particles(one_buffer(grid, field_k.copy()), BOX, d1)
        assert from_array.tobytes() == from_stream.tobytes()
        # an array argument is read, not consumed
        assert psi.tobytes() == grid.inverse_gradient(field_k).tobytes()

    def test_second_order_components_may_stream_too(self):
        grid = SpectralGrid(8, BOX)
        k1, k2 = modes(8, 3), modes(8, 4)
        psi1, psi2 = grid.inverse_gradient(k1), grid.inverse_gradient(k2)
        want = displace_particles(psi1, BOX, 0.9, psi2=psi2, d2=-0.4)
        got = displace_particles(
            one_buffer(grid, k1), BOX, 0.9, psi2=one_buffer(grid, k2), d2=-0.4
        )
        assert want.tobytes() == got.tobytes()

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_wrong_number_of_components_raises(self, count):
        with pytest.raises(ValueError, match="three"):
            displace_particles(iter([np.zeros((4, 4, 4))] * count), BOX, 1.0)

    def test_ragged_component_raises(self):
        fields = [np.zeros((4, 4, 4)), np.zeros((4, 4, 5)), np.zeros((4, 4, 4))]
        with pytest.raises(ValueError, match="three"):
            displace_particles(fields, BOX, 1.0)

    def test_second_order_component_of_another_shape_raises(self):
        """Added a block at a time, a longer one would be cut short."""
        first, second = np.zeros((3, 4, 4, 4)), np.zeros((3, 5, 5, 5))
        with pytest.raises(ValueError, match="three"):
            displace_particles(first, BOX, 1.0, psi2=second, d2=1.0)


def traced_peak_units(solve, n):
    """Peak traced bytes of ``solve()``, past what was alive before it, in
    ``n³`` float64 arrays; a first call pays for imports and FFT plans."""
    solve()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solve()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / (8 * n**3)


class TestAllocationBudget:
    """Peak traced bytes of one universe, in units of one ``n³`` float64
    array.  NumPy reports its buffers to ``tracemalloc``, so the number is
    a property of the code, not of the host: it repeats to within the few
    hundred bytes of Python objects made along the way.

    The dataset path (``simulate_density``) peaks in ``lpt2_source``:
    ``δ_k`` and the work spectrum each derivative is scaled into (2 ×
    ~1.04), the two real buffers ``source`` and ``d00`` (2), one slab
    buffer (8 planes, 1/6 at 48³), the slab of ``1/k²`` being rebuilt and
    a ufunc cast buffer — 4.60 at 48³, 4.24 at 96³.  The other four
    derivatives are consumed a slab at a time as their last two inverse
    passes run, and the displacements are binned a slab at a time, so the
    ``(n³, 3)`` positions never exist on that path.  ``run_simulation``
    peaks in the displacement stage instead: solved spectrum, work
    spectrum and the positions (3) — 5.24 at 48³, 5.06 at 96³.  They were
    4.95 and 5.76 at 48³ with a whole real half-spectrum ``1/k²`` (0.5)
    kept by the grid; 6.3 with a whole ``|k|`` grid, three real buffers in
    ``lpt2_source`` and a whole-array wrap; 8.3 with a component buffer
    and a displacement temporary beside the positions; and 9.8 with a
    transform that allocates each pass and a ``(3, n, n, n)`` Ψ held
    beside them.
    """

    DATASET_BUDGET_UNITS = 4.7
    POSITIONS_BUDGET_UNITS = 5.3

    @pytest.mark.parametrize("n", [48, 49])
    def test_simulate_density_peak_within_budget(self, n):
        config = SimulationConfig(particle_grid=n, histogram_grid=16)
        units = traced_peak_units(lambda: simulate_density(THETA, config, seed=1), n)
        assert 3.0 < units <= self.DATASET_BUDGET_UNITS, f"peak is {units:.2f} n³ arrays"

    @pytest.mark.parametrize("n", [48, 49])
    def test_run_simulation_peak_within_budget(self, n):
        config = SimulationConfig(particle_grid=n, histogram_grid=16)
        units = traced_peak_units(lambda: run_simulation(THETA, config, seed=1), n)
        assert 3.0 < units <= self.POSITIONS_BUDGET_UNITS, f"peak is {units:.2f} n³ arrays"


#: Grids a slab of axis-0 planes does not divide (33, 49, and the even 36),
#: and ones smaller than one slab (5, 6): the last slab is short, or the
#: only one.
SLAB_GRIDS = [5, 6, 33, 36, 49]


def whole_inv_k2(n):
    """``1/k²`` on the whole half spectrum, the ``k = 0`` mode zeroed."""
    k2 = fourier_grid(n, BOX)[3] ** 2
    return np.divide(1.0, k2, out=k2, where=k2 > 0.0)


class TestSlabsEqualWholeArrays:
    """Every streamed stage against the same operations on whole arrays,
    byte for byte: the slabs change which memory holds a value, never an
    operation or its order."""

    @pytest.mark.parametrize("n", SLAB_GRIDS)
    def test_modes_and_inverse_laplacian(self, n):
        spectrum = PowerSpectrum()
        k_mag = fourier_grid(n, BOX)[3]
        want = np.fft.rfftn(np.random.default_rng(n).standard_normal((n, n, n)))
        want *= np.sqrt(spectrum(k_mag) * n**3 / BOX**3)
        want[0, 0, 0] = 0.0
        assert gaussian_random_modes(n, BOX, spectrum, rng=n).tobytes() == want.tobytes()
        delta_k = modes(n, n)
        want = whole_inv_k2(n) * delta_k
        got = SpectralGrid(n, BOX)._over_k2(delta_k, out=delta_k)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", SLAB_GRIDS)
    def test_lpt2_source(self, n):
        grid = SpectralGrid(n, BOX)
        delta_k = modes(n, n)
        kx, ky, kz = grid.k
        inv_k2 = whole_inv_k2(n)

        def derivative(multiplier):
            work = inv_k2 * delta_k * multiplier
            return np.fft.irfftn(work, s=(n,) * 3, axes=(0, 1, 2))

        def mixed(a, b):
            product = grid.k_odd[a] * grid.k_odd[b]
            if n % 2 == 0:
                line = [0, 0, 0]
                line[a] = line[b] = n // 2
                product[tuple(line)] = (np.pi * n / BOX) ** 2
            return derivative(product)

        d00, d11, d22 = derivative(kx**2), derivative(ky**2), derivative(kz**2)
        want = d00 * d11 + (d00 + d11) * d22
        for a, b in ((0, 1), (0, 2), (1, 2)):
            want -= mixed(a, b) ** 2
        assert grid.lpt2_source(delta_k).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", SLAB_GRIDS)
    @pytest.mark.parametrize("use_2lpt", [True, False])
    def test_binned_stream_equals_histogram_of_positions(self, n, use_2lpt):
        config = SimulationConfig(
            particle_grid=n, histogram_grid=8, box_size=BOX, use_2lpt=use_2lpt
        )
        positions = run_simulation(THETA, config, seed=n)
        want = particle_histogram(positions, config.histogram_grid, BOX)
        assert simulate_density(THETA, config, seed=n).tobytes() == want.tobytes()


#: SHA-256 over (volumes, targets, theta) of ``build_arrays(n_sims, config,
#: seed=22)``, recorded from the transform-per-pass solver this one
#: replaced: the three set-ups the benchmark workloads build their data
#: from (universe counts cut, the identity is per universe) and an odd grid.
DIGESTS = {
    "g96_h64": (
        1,
        SimulationConfig(particle_grid=96, histogram_grid=64),
        "13eda4fe0e2896cf655c2a70cc309454da6a2740543806b9165830f6d4510854",
    ),
    "g64_h64": (
        2,
        SimulationConfig(particle_grid=64, histogram_grid=64),
        "5d3540f923732047c3a52b6d214d1053d3109d0f409bd7e3f0228574b49293bb",
    ),
    "g64_h32": (
        2,
        SimulationConfig(),
        "b80e749dffb13d7eb5a5f5ef6c2664a4178c6afe47a6e3dc04af5911b22c117c",
    ),
    "g33_h32": (
        2,
        SimulationConfig(particle_grid=33, histogram_grid=32),
        "da91f8d688824ab53aa17e7402ecd638b291a8e15c0d8169351545837d224a96",
    ),
}


#: SHA-256 of ``run_simulation(THETA, config, seed=22)``, from the same
#: solver.  Counts survive a last-bit change in a position; these do not,
#: so they pin the order of every floating-point operation.  Outside COLA
#: the public pieces must give the same bytes
#: (:func:`through_displace_particles`).
POSITION_DIGESTS = {
    "lpt2_g32": (
        SimulationConfig(particle_grid=32, histogram_grid=16),
        "bbe3ebc266360acb366560d9dfc7cd7b8029af1faa1a7567693494c390168938",
    ),
    "lpt2_g33": (
        SimulationConfig(particle_grid=33, histogram_grid=16),
        "c47d57221bb171fdaaf76213a294fc918e6f3279c2c19e07d7430c4eabc6398e",
    ),
    "zeldovich_g17": (
        SimulationConfig(particle_grid=17, histogram_grid=16, use_2lpt=False),
        "b084dad322bc5357870dc549faf3e9af6013eb6796a6d6470e6bdea5bf0b70f7",
    ),
    # recorded from the solver that streamed Ψ through one buffer
    "zeldovich_g16": (
        SimulationConfig(particle_grid=16, histogram_grid=16, use_2lpt=False),
        "343728ca03fd306b12aa25fd22abdeb73ed56a2a7a13fcbd6893333d6d87c35a",
    ),
    "cola_g16": (
        SimulationConfig(particle_grid=16, histogram_grid=16, box_size=64.0, cola_steps=2),
        "a85b6d68399eb23e83f697cbe44f3ea6b62b1205e9b78757c343e08397bbc328",
    ),
}


def through_displace_particles(config):
    """``run_simulation``'s universe from the public pieces: the whole
    ``(3, n, n, n)`` Ψ of the same modes, then :func:`displace_particles`
    — the other entry point to the positions' add-centers-and-wrap tail."""
    omega_m, sigma_8, n_s = THETA
    spectrum = PowerSpectrum(omega_m=omega_m, sigma_8=sigma_8, n_s=n_s)
    delta_k = gaussian_random_modes(config.particle_grid, config.box_size, spectrum, rng=22)
    grid = SpectralGrid(config.particle_grid, config.box_size)
    if config.use_2lpt:
        delta_k = _lpt_spectrum(grid, delta_k, 1.0, second_order_growth(1.0, omega_m))
    return displace_particles(grid.inverse_gradient(delta_k), config.box_size, 1.0)


class TestDatasetDigest:
    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_build_arrays_bytes_are_the_recorded_ones(self, name):
        n_sims, config, digest = DIGESTS[name]
        sha = hashlib.sha256()
        for array in build_arrays(n_sims, config, seed=22):
            sha.update(array.tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("name", list(POSITION_DIGESTS))
    def test_positions_are_the_recorded_ones(self, name):
        config, digest = POSITION_DIGESTS[name]
        positions = run_simulation(THETA, config, seed=22)
        assert hashlib.sha256(positions.tobytes()).hexdigest() == digest
        if config.cola_steps == 0:
            assert through_displace_particles(config).tobytes() == positions.tobytes()
