"""End-to-end dataset generation: parameters → simulations → training data.

Mirrors the paper's pipeline at configurable scale:

1. sample (ΩM, σ8, ns) uniformly from the Planck-motivated ranges;
2. for each parameter vector, realize Gaussian initial conditions and
   evolve particles to z = 0 (2LPT by default; COLA PM steps optional);
3. grid particles into a count histogram (``numpy.histogramdd``'s counts);
4. split each box into 2×2×2 sub-volumes — eight training samples per
   simulation, exactly the paper's 8 × 128³ per 512 Mpc/h box;
5. normalize (``log1p`` of counts, standardized) and pair with
   [0, 1]-normalized targets.

The paper runs 12,632 boxes of 512³ particles; the defaults here run in
seconds with 64³ particles and produce 32³ sub-volumes that feed the
``scaled_32`` network.  All ratios (box to sub-volume, particles to
voxels) are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.parameters import ParameterSpace
from repro.cosmo.histogram import (
    _bin_axis,
    _check_in_box,
    _counts,
    particle_histogram,
    split_subvolumes,
)
from repro.cosmo.initial_conditions import gaussian_random_modes
from repro.cosmo.lpt import SpectralGrid, _lpt_spectrum, _onto_lattice, second_order_growth
from repro.cosmo.nbody import ColaStepper
from repro.cosmo.power_spectrum import PowerSpectrum
from repro.utils.rng import derive_seed, new_rng

__all__ = [
    "SimulationConfig",
    "run_simulation",
    "simulate_density",
    "build_arrays",
    "train_val_test_split",
]


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation's numerical setup.

    The paper: ``box_size=512`` Mpc/h, ``particle_grid=512``,
    ``histogram_grid=256``, ``splits=2`` → 8 sub-volumes of 128³ with
    a mean of 8 particles per voxel.  Defaults here keep the same 2:1
    particle-to-voxel ratio (hence the same 8/voxel — shot noise at 1
    particle/voxel buries the ~10% σ8 amplitude signal), the same 2x2x2
    split, and 4 Mpc/h voxels (vs the paper's 2), at 1/8 linear size.
    """

    particle_grid: int = 64
    box_size: float = 512.0 / 4.0
    histogram_grid: int = 32
    splits: int = 2
    use_2lpt: bool = True
    cola_steps: int = 0  # 0 = pure LPT (fast); >0 adds PM residual steps
    redshift: float = 0.0

    def __post_init__(self):
        if self.particle_grid < 4:
            raise ValueError("particle_grid must be >= 4")
        if self.histogram_grid < 1:
            raise ValueError(f"histogram_grid must be >= 1, got {self.histogram_grid}")
        if self.histogram_grid % self.splits != 0:
            raise ValueError("histogram_grid must be divisible by splits")

    @property
    def mean_count_per_voxel(self) -> float:
        """Expected particles per histogram voxel (paper: 8)."""
        return (self.particle_grid / self.histogram_grid) ** 3

    @property
    def subvolume_size(self) -> int:
        return self.histogram_grid // self.splits

    @property
    def subvolumes_per_sim(self) -> int:
        return self.splits**3


def _displacement_spectrum(theta, config: SimulationConfig, seed: int):
    """One universe's grid and the spectrum whose inverse gradient
    displaces its lattice: ``δ_k`` for first order and COLA, ``D₁δ_k +
    D₂S_k`` for 2LPT."""
    theta = np.asarray(theta, dtype=np.float64)
    h = 0.67
    if theta.size == 2:
        omega_m, sigma_8 = theta
        n_s = 0.9667
    elif theta.size == 3:
        omega_m, sigma_8, n_s = theta
    elif theta.size == 4:
        # the extended Section VII-B space: (omega_m, sigma_8, n_s, h)
        omega_m, sigma_8, n_s, h = theta
    else:
        raise ValueError(f"theta must have 2, 3 or 4 entries, got {theta.size}")

    spectrum = PowerSpectrum(
        omega_m=float(omega_m), sigma_8=float(sigma_8), n_s=float(n_s), h=float(h)
    )
    if config.redshift > 0:
        spectrum = spectrum.at_redshift(config.redshift)
    n, box = config.particle_grid, config.box_size
    field_k = gaussian_random_modes(n, box, spectrum, new_rng(seed))
    grid = SpectralGrid(n, box)
    # The realized spectrum is already the z=0 (or target-z) one, so D₁ = 1.
    # 2LPT puts both orders through one solve: the growth factors go in
    # before the transform, and δ_k becomes D₁δ_k inside their sum.
    if config.use_2lpt and config.cola_steps == 0:
        d2 = second_order_growth(1.0, float(omega_m))
        field_k = _lpt_spectrum(grid, field_k, 1.0, d2)
    return grid, field_k


def run_simulation(theta, config: SimulationConfig, seed: int = 0) -> np.ndarray:
    """Evolve one box to z=0; returns particle positions ``(N³, 3)``.

    ``theta`` is ``(omega_m, sigma_8, n_s)`` (or the 2-parameter subset
    with ns fixed at the Planck value).
    """
    grid, field_k = _displacement_spectrum(theta, config, seed)
    if config.cola_steps > 0:
        psi1 = grid._gradient(field_k)
        return ColaStepper(psi1, config.box_size, n_steps=config.cola_steps).run()
    # Each displacement component is solved straight into its column of the
    # positions, and each slab of it becomes Ψ + q as it lands.
    n = config.particle_grid
    positions = np.empty((n**3, 3))
    columns = positions.reshape(n, n, n, 3)
    for axis, planes, x in grid._stream_gradient(field_k, [columns[..., a] for a in range(3)]):
        _onto_lattice(x, axis, planes, config.box_size)
    return positions


def simulate_density(theta, config: SimulationConfig, seed: int = 0) -> np.ndarray:
    """One full-box particle-count histogram (``histogram_grid³``): the
    counts of :func:`particle_histogram` over :func:`run_simulation`'s
    positions, binned a coordinate slab at a time as the solve yields it,
    so the ``(N³, 3)`` positions never exist."""
    bins, box = config.histogram_grid, config.box_size
    if config.cola_steps > 0:
        return particle_histogram(run_simulation(theta, config, seed), bins, box)
    grid, field_k = _displacement_spectrum(theta, config, seed)
    cells = np.zeros((config.particle_grid,) * 3, dtype=np.intp)
    for axis, planes, x in grid._stream_gradient(field_k):
        _onto_lattice(x, axis, planes, box)
        _check_in_box(x, box)
        _bin_axis(cells[planes], x, bins, box)
    return _counts(cells, bins)


def simulate_multichannel(
    theta, config: SimulationConfig, redshifts, seed: int = 0
) -> np.ndarray:
    """Histograms of the *same* initial conditions at several redshifts.

    The paper's Section VII-B extension ("extending the network to
    multiple redshift snapshots"): each channel is the same universe
    observed at a different epoch.  Sharing the seed shares the white
    noise, so channels differ only by growth — exactly a simulation's
    snapshot sequence.

    Returns ``(n_redshifts, G, G, G)`` counts.
    """
    redshifts = tuple(float(z) for z in redshifts)
    if not redshifts:
        raise ValueError("need at least one redshift")
    if any(z < 0 for z in redshifts):
        raise ValueError("redshifts must be >= 0")
    from dataclasses import replace as _replace

    # stacked once all exist: no output array is alive during a solve
    return np.stack(
        [simulate_density(theta, _replace(config, redshift=z), seed=seed) for z in redshifts]
    )


#: Default log-scale spread divisor.
LOG_SCALE = 0.6


def normalize_counts(counts: np.ndarray, mean_count: float = 1.0) -> np.ndarray:
    """``(log1p(counts) − log1p(mean_count)) / s`` with *global* constants.

    Raw Poisson-like counts span orders of magnitude between voids and
    halos; the log transform keeps the network's input well-conditioned
    (standard practice for density-field CNNs).  The affine constants
    are fixed across the whole dataset (``mean_count`` comes from the
    simulation config, not from the data) so amplitude differences
    between cosmologies survive — a per-volume standardization would
    destroy the σ8 signal.
    """
    if mean_count < 0:
        raise ValueError("mean_count must be >= 0")
    out = np.log1p(np.asarray(counts, dtype=np.float64))
    return ((out - np.log1p(mean_count)) / LOG_SCALE).astype(np.float32)


def build_arrays(
    n_sims: int,
    config: Optional[SimulationConfig] = None,
    space: Optional[ParameterSpace] = None,
    seed: int = 0,
    normalize: bool = True,
    redshifts: Optional[Tuple[float, ...]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate a full training array set.

    Returns ``(volumes, targets_normalized, theta_physical)`` where
    ``volumes`` is ``(n_sims * splits³, C, s, s, s)`` float32 with one
    channel per redshift (``C=1`` at the config's single redshift by
    default), ``targets_normalized`` is the matching ``(n, P)`` [0,1]
    targets and ``theta_physical`` the raw parameter vectors (one row
    per *sub-volume*; sub-volumes of the same simulation share a row,
    as in the paper).
    """
    if n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    config = config or SimulationConfig()
    space = space or ParameterSpace()
    thetas = space.sample(n_sims, rng=new_rng(derive_seed(seed, "params")))

    zs = redshifts if redshifts is not None else (config.redshift,)
    zs = tuple(float(z) for z in zs)
    n_channels = len(zs)
    s = config.subvolume_size
    per = config.subvolumes_per_sim
    volumes = np.empty((n_sims * per, n_channels, s, s, s), dtype=np.float32)
    theta_rows = np.empty((n_sims * per, space.n_params), dtype=np.float64)
    for i, theta in enumerate(thetas):
        # the universe's histograms are an argument, gone when the call
        # returns: none is alive while the next universe is simulated
        _write_subvolumes(
            volumes[i * per : (i + 1) * per],
            simulate_multichannel(theta, config, zs, seed=derive_seed(seed, "sim", i)),
            config,
            normalize,
        )
        theta_rows[i * per : (i + 1) * per] = theta
    targets = space.normalize(theta_rows).astype(np.float32)
    return volumes, targets, theta_rows


def _write_subvolumes(out, channels, config: SimulationConfig, normalize: bool) -> None:
    """Each channel's ``splits³`` sub-volumes into ``out[:, channel]``."""
    for c, channel in enumerate(channels):
        for j, sub in enumerate(split_subvolumes(channel, config.splits)):
            out[j, c] = (
                normalize_counts(sub, config.mean_count_per_voxel)
                if normalize
                else sub.astype(np.float32)
            )


def train_val_test_split(
    volumes: np.ndarray,
    targets: np.ndarray,
    theta: np.ndarray,
    subvolumes_per_sim: int,
    val_fraction: float = 0.1,
    test_fraction: float = 0.05,
    rng=None,
):
    """Split by *simulation* (not sub-volume), as the paper does
    ("we set aside 150 simulations ... as the validation data, and 50
    simulations ... as the test data") — sub-volumes of one simulation
    share cosmology and large-scale modes, so splitting by sub-volume
    would leak.

    Returns three ``(volumes, targets, theta)`` triples.
    """
    n_total = len(volumes)
    if n_total % subvolumes_per_sim != 0:
        raise ValueError("volume count not divisible by subvolumes_per_sim")
    if val_fraction < 0 or test_fraction < 0 or val_fraction + test_fraction >= 1:
        raise ValueError("invalid split fractions")
    n_sims = n_total // subvolumes_per_sim
    order = np.arange(n_sims)
    new_rng(rng).shuffle(order)
    n_val = max(1, int(round(n_sims * val_fraction))) if val_fraction > 0 else 0
    n_test = max(1, int(round(n_sims * test_fraction))) if test_fraction > 0 else 0
    if n_val + n_test >= n_sims:
        raise ValueError(
            f"{n_sims} simulations cannot supply val={n_val} and test={n_test}"
        )
    val_sims = set(order[:n_val].tolist())
    test_sims = set(order[n_val : n_val + n_test].tolist())

    def gather(sim_ids):
        idx = np.concatenate(
            [
                np.arange(s * subvolumes_per_sim, (s + 1) * subvolumes_per_sim)
                for s in sorted(sim_ids)
            ]
        ) if sim_ids else np.array([], dtype=int)
        return volumes[idx], targets[idx], theta[idx]

    train_sims = [s for s in range(n_sims) if s not in val_sims and s not in test_sims]
    return gather(train_sims), gather(val_sims), gather(test_sims)
