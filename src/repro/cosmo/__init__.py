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

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "power_spectrum": ("PowerSpectrum", "growth_factor"),
    "initial_conditions": ("gaussian_random_field", "gaussian_random_modes", "fourier_grid"),
    "lpt": ("zeldovich_displacement", "lpt2_displacement", "lpt_displacement",
            "displace_particles"),
    "nbody": ("ColaStepper", "ParticleMesh"),
    "histogram": ("particle_histogram", "split_subvolumes"),
    "dataset_builder": ("SimulationConfig", "run_simulation", "simulate_density",
                        "simulate_multichannel", "build_arrays", "train_val_test_split"),
    "statistics": ("measure_power_spectrum", "two_point_correlation",
                   "equilateral_bispectrum", "density_moments", "summary_features"),
    "baseline": ("StatisticalBaseline",),
})
