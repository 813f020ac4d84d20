"""The exact-arithmetic particle kernels against the paper's calls.

``tests/cosmo/histogramdd_reference.py`` is the specification: the
computed-cell histogram must return ``numpy.histogramdd``'s counts and
the add/subtract wrap ``np.mod``'s coordinates, so every dataset built
through them is the same bytes — the ones binned slab by slab as the
solver streams them included — and no universe runs either call.
"""

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
from repro.cosmo.histogram import _BLOCK, particle_histogram
from repro.cosmo.initial_conditions import gaussian_random_modes
from repro.cosmo.lpt import (
    lpt_displacement,
    second_order_growth,
    wrap_periodic,
    zeldovich_displacement,
)
from repro.cosmo.power_spectrum import PowerSpectrum
from tests.cosmo import histogramdd_reference as reference

BOX_SIZES = [128.0, 100.0, 256.0 / 3.0, 1e-3, 1e6]
BIN_COUNTS = [1, 2, 3, 7, 32, 64]


def ulp_neighbours(values):
    """Each value with the float just below and just above it."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate(
        [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
    )


def critical_coordinates(n_bins, box_size):
    """Every coordinate of ``[0, L)`` where the bin changes: each edge
    ``histogramdd`` searches, the floats on both sides of it, ``0.0`` and
    ``nextafter(L, 0)``."""
    around = ulp_neighbours(np.linspace(0.0, box_size, n_bins + 1))
    return np.unique(around[(around >= 0.0) & (around < box_size)])


def count_calls(monkeypatch, *names):
    """Wrap ``np.<name>`` in a counter for the rest of the test."""
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    return calls


def assert_same_histogram(positions, n_bins, box_size):
    want = reference.particle_histogram(positions, n_bins, box_size)
    got = particle_histogram(positions, n_bins, box_size)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestHistogramParity:
    @pytest.mark.parametrize("box_size", BOX_SIZES)
    @pytest.mark.parametrize("n_bins", BIN_COUNTS)
    def test_every_edge_and_its_neighbours_on_every_axis(self, n_bins, box_size):
        x = critical_coordinates(n_bins, box_size)
        positions = np.stack([x, np.roll(x, 1), x[::-1]], axis=1)
        assert_same_histogram(positions, n_bins, box_size)

    def test_both_corrections_are_needed(self):
        """The mutation check, kept: over these edge sets the multiply is
        one bin low for some coordinates and one bin high for others (never
        two), so dropping either ``±1`` turns the parity tests red."""
        low = high = 0
        for box_size in BOX_SIZES:
            for n_bins in BIN_COUNTS:
                x = critical_coordinates(n_bins, box_size)
                edges = np.linspace(0.0, box_size, n_bins + 1)
                # the multiply alone, before either correction
                candidate = np.minimum((x * (n_bins / box_size)).astype(np.intp), n_bins - 1)
                off = np.searchsorted(edges, x, side="right") - 1 - candidate
                assert np.abs(off).max() <= 1
                low += np.count_nonzero(off == 1)
                high += np.count_nonzero(off == -1)
        assert low > 0 and high > 0

    @settings(max_examples=60, deadline=None)
    @given(
        box_size=st.sampled_from(BOX_SIZES),
        n_bins=st.sampled_from(BIN_COUNTS),
        n=st.integers(min_value=2, max_value=400),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        layout=st.sampled_from(["c", "rows", "columns", "fortran"]),
    )
    def test_property_counts_equal_histogramdd(self, box_size, n_bins, n, seed, layout):
        rng = np.random.default_rng(seed)
        uniform = rng.uniform(0.0, box_size, size=3 * n)
        uniform = uniform[uniform < box_size]  # uniform() may round up to L
        pool = np.concatenate([critical_coordinates(n_bins, box_size), uniform])
        values = rng.choice(pool, size=(n, 3))
        if layout == "c":
            positions = values
        elif layout == "rows":  # every other row of a longer catalogue
            positions = np.repeat(values, 2, axis=0)[::2]
        elif layout == "columns":  # three columns out of five
            wide = np.zeros((n, 5))
            wide[:, 1:4] = values
            positions = wide[:, 1:4]
        else:
            positions = np.asfortranarray(values)
        assert positions.flags.c_contiguous == (layout == "c")
        assert_same_histogram(positions, n_bins, box_size)

    def test_catalogue_longer_than_one_block(self):
        rng = np.random.default_rng(11)
        n = 2 * _BLOCK + 17
        assert_same_histogram(rng.uniform(0.0, 100.0, size=(n, 3)), 7, 100.0)


def assert_wraps_like_np_mod(x, box_size):
    """Bit for bit the ``np.mod`` wrap of the specification, and in place."""
    want = reference.wrap_periodic(np.array(x, dtype=np.float64), box_size)
    got = np.array(x, dtype=np.float64)
    assert wrap_periodic(got, box_size) is got
    assert got.tobytes() == want.tobytes()
    return got


class TestWrapParity:
    def test_hair_below_zero_is_zero_never_box_size(self):
        got = assert_wraps_like_np_mod([-1e-17, -5e-324, 1.0], 128.0)
        assert got.tolist() == [0.0, 0.0, 1.0]

    def test_negative_zero_comes_out_positive(self):
        got = assert_wraps_like_np_mod([-0.0, 0.0, 3.0], 128.0)
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("box_size", BOX_SIZES)
    def test_multiples_of_the_box_and_their_neighbours(self, box_size):
        for k in range(1, 4):
            around = ulp_neighbours([-k * box_size, k * box_size])
            # as one array the farthest coordinate picks the path for all;
            # alone, each one within a box of [0, L) is added to or
            # subtracted from and the others go through np.mod
            got = assert_wraps_like_np_mod(around, box_size)
            assert np.all((got >= 0.0) & (got < box_size))
            for value in around:
                assert_wraps_like_np_mod([value], box_size)
        assert_wraps_like_np_mod(np.arange(-3, 4) * box_size, box_size)

    @pytest.mark.parametrize("box_size", BOX_SIZES)
    def test_several_boxes_out_takes_np_mod(self, box_size, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.uniform(-7.5 * box_size, 7.5 * box_size, size=(500, 3))
        calls = count_calls(monkeypatch, "mod")
        assert_wraps_like_np_mod(x, box_size)
        assert calls["mod"] == 2  # the specification's call and the fallback's

    def test_nan_passes_through(self):
        got = assert_wraps_like_np_mod([-1.0, np.nan, 130.0, 5.0], 128.0)
        assert np.isnan(got[1]) and got[[0, 2, 3]].tolist() == [127.0, 2.0, 5.0]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_inf_warns_as_np_mod_does(self, bad):
        x = [1.0, bad, -2.0]
        with pytest.warns(RuntimeWarning, match="invalid value") as spec:
            want = reference.wrap_periodic(np.array(x), 128.0)
        with pytest.warns(RuntimeWarning, match="invalid value") as ours:
            got = wrap_periodic(np.array(x), 128.0)
        assert got.tobytes() == want.tobytes()
        assert [str(w.message) for w in ours] == [str(w.message) for w in spec]

    def test_empty_and_strided_inputs(self):
        assert_wraps_like_np_mod(np.empty((0, 3)), 128.0)
        base = np.random.default_rng(5).uniform(-128.0, 256.0, size=(64, 6))
        want = base.copy()
        reference.wrap_periodic(want[::2, 1:4], 128.0)
        view = base[::2, 1:4]
        assert wrap_periodic(view, 128.0) is view
        assert base.tobytes() == want.tobytes()  # the view wrapped, the rest untouched

    @settings(max_examples=60, deadline=None)
    @given(
        box_size=st.sampled_from(BOX_SIZES),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=64),
        reach=st.sampled_from([1, 4]),  # boxes out; 1 stays on the add/subtract path
    )
    def test_property_bit_equal_to_np_mod(self, box_size, seed, n, reach):
        rng = np.random.default_rng(seed)
        special = ulp_neighbours(
            [-box_size, -0.0, 0.0, box_size, 2.0 * box_size, -1e-17 * box_size]
        )
        if reach == 1:
            special = special[(special >= -box_size) & (special < 2.0 * box_size)]
        uniform = rng.uniform(-reach * box_size, (reach + 1) * box_size, size=3 * n)
        pick = rng.random(3 * n) < 0.5
        x = np.where(pick, rng.choice(special, size=3 * n), uniform).reshape(n, 3)
        assert_wraps_like_np_mod(x, box_size)


#: ``build_arrays`` arguments per set-up: the default universe, the
#: benchmark's large one, first-order LPT alone, two redshift channels, and
#: COLA steps (the wrap's other caller).
DATASETS = {
    "default": dict(n_sims=2),
    "g96_h64": dict(n_sims=1, config=SimulationConfig(particle_grid=96, histogram_grid=64)),
    "zeldovich": dict(n_sims=1, config=SimulationConfig(use_2lpt=False)),
    "two_redshifts": dict(n_sims=1, redshifts=(0.0, 0.5)),
    "cola": dict(
        n_sims=1,
        config=SimulationConfig(particle_grid=16, histogram_grid=16, box_size=64.0, cola_steps=3),
    ),
}


def reference_positions(theta, config, seed):
    """A 2LPT or first-order universe's positions without the solver's
    slab stream or wrap: its whole ``(3, n, n, n)`` displacement from the
    public solvers, plus the lattice written out here, through ``np.mod``."""
    omega_m, sigma_8, n_s = (float(t) for t in theta)
    spectrum = PowerSpectrum(omega_m=omega_m, sigma_8=sigma_8, n_s=n_s)
    if config.redshift > 0:
        spectrum = spectrum.at_redshift(config.redshift)
    n, box = config.particle_grid, config.box_size
    delta_k = gaussian_random_modes(n, box, spectrum, rng=seed)
    if config.use_2lpt:
        psi = lpt_displacement(delta_k, box, 1.0, second_order_growth(1.0, omega_m))
    else:
        psi = zeldovich_displacement(delta_k, box)
    centers = (np.arange(n) + 0.5) * (box / n)
    lattice = (centers[:, None, None], centers[:, None], centers)
    positions = np.stack([psi[a] + lattice[a] for a in range(3)], axis=-1)
    return reference.wrap_periodic(positions.reshape(-1, 3), box)


def reference_density(theta, config, seed):
    """A universe's histogram through ``numpy.histogramdd``; COLA's
    positions come from ``run_simulation`` with the ``np.mod`` wrap."""
    if config.cola_steps > 0:
        positions = run_simulation(theta, config, seed)
    else:
        positions = reference_positions(theta, config, seed)
    return reference.particle_histogram(positions, config.histogram_grid, config.box_size)


class TestDatasetByteIdentity:
    @pytest.mark.parametrize("name", list(DATASETS))
    def test_build_arrays_bytes_equal_through_the_reference_kernels(self, name, monkeypatch):
        built = build_arrays(seed=5, **DATASETS[name])
        monkeypatch.setattr("repro.cosmo.dataset_builder.simulate_density", reference_density)
        monkeypatch.setattr("repro.cosmo.lpt.wrap_periodic", reference.wrap_periodic)
        monkeypatch.setattr("repro.cosmo.nbody.wrap_periodic", reference.wrap_periodic)
        expected = build_arrays(seed=5, **DATASETS[name])
        for got, want in zip(built, expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestNoSearchNoFmod:
    def test_a_default_universe_calls_neither_np_mod_nor_histogramdd(self, monkeypatch):
        calls = count_calls(monkeypatch, "mod", "histogramdd")
        counts = simulate_density((0.31, 0.82, 0.96), SimulationConfig(), seed=2)
        assert counts.sum() == 64**3
        assert calls == {"mod": 0, "histogramdd": 0}
        # the counters do count: the specification makes one call of each
        positions = reference.wrap_periodic(np.full((4, 3), 130.0), 128.0)
        reference.particle_histogram(positions, 4, 128.0)
        assert calls == {"mod": 1, "histogramdd": 1}
