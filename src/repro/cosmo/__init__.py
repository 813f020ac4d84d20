"""Cosmological simulation pipeline (MUSIC + pycola substitute).

The paper's training data comes from 12,632 dark-matter N-body
simulations: MUSIC generates Gaussian random-field initial conditions
from a ΛCDM power spectrum, pycola evolves 512³ particles to redshift
zero with the COLA method, and the particles are gridded into 256³
voxel counts (the paper calls ``numpy.histogramdd``; here its counts are
computed arithmetically) that are split into eight 128³ sub-volumes.

This subpackage implements that entire pipeline at laptop scale:

* :mod:`repro.cosmo.power_spectrum` — flat-ΛCDM linear power spectrum
  with a BBKS transfer function, exact σ8 normalization, and the linear
  growth factor (the physics MUSIC encodes).
* :mod:`repro.cosmo.initial_conditions` — Gaussian random-field
  realizations of δ(x) with a prescribed P(k) (MUSIC's job).
* :mod:`repro.cosmo.lpt` — Zel'dovich and 2LPT displacement fields
  (COLA's large-scale backbone), solved with real-to-complex FFTs on
  the half spectrum.
* :mod:`repro.cosmo.nbody` — a particle-mesh force solver with COLA
  time stepping (pycola's job), optional since 2LPT alone already
  produces parameter-dependent structure.
* :mod:`repro.cosmo.histogram` — particle gridding and the 2x2x2
  sub-volume split.
* :mod:`repro.cosmo.dataset_builder` — end-to-end: parameter vectors →
  simulations → normalized training arrays / record files.
* :mod:`repro.cosmo.statistics` — power-spectrum and moment estimators.
* :mod:`repro.cosmo.baseline` — the "traditional statistics" parameter
  estimator the deep network is compared against (Ravanbakhsh et al.'s
  ~3x relative-error improvement claim, experiment E6).
"""

from repro.cosmo.power_spectrum import PowerSpectrum, growth_factor
from repro.cosmo.initial_conditions import (
    gaussian_random_field,
    gaussian_random_modes,
    fourier_grid,
)
from repro.cosmo.lpt import (
    zeldovich_displacement,
    lpt2_displacement,
    lpt_displacement,
    displace_particles,
)
from repro.cosmo.nbody import ColaStepper, ParticleMesh
from repro.cosmo.histogram import particle_histogram, split_subvolumes
from repro.cosmo.dataset_builder import (
    SimulationConfig,
    run_simulation,
    simulate_density,
    simulate_multichannel,
    build_arrays,
    train_val_test_split,
)
from repro.cosmo.statistics import (
    measure_power_spectrum,
    two_point_correlation,
    equilateral_bispectrum,
    density_moments,
    summary_features,
)
from repro.cosmo.baseline import StatisticalBaseline

__all__ = [
    "PowerSpectrum",
    "growth_factor",
    "gaussian_random_field",
    "gaussian_random_modes",
    "fourier_grid",
    "zeldovich_displacement",
    "lpt2_displacement",
    "lpt_displacement",
    "displace_particles",
    "ColaStepper",
    "ParticleMesh",
    "particle_histogram",
    "split_subvolumes",
    "SimulationConfig",
    "run_simulation",
    "simulate_density",
    "simulate_multichannel",
    "build_arrays",
    "train_val_test_split",
    "measure_power_spectrum",
    "two_point_correlation",
    "equilateral_bispectrum",
    "density_moments",
    "summary_features",
    "StatisticalBaseline",
]
