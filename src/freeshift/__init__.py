"""Thermodynamic formalism on free-group subshifts.

The full shift here is the space of freely reduced words over the 2d
letters of a rank-d free group. Given a potential (a function of a
bounded window of letters) the package computes topological pressure,
critical exponents and Bowen dimensions, free-energy curves and their
Legendre (multifractal) spectra, and the same quantities restricted to
the fibers of a quotient map. Comparing the full and restricted values
gives numerical amenability and dimension-gap diagnostics.
"""

import importlib
import os

# OpenBLAS starts a busy-waiting worker per core at load, and no operand here
# is big enough to use it: load numpy on one BLAS thread unless the caller set
# a count. OpenBLAS reads the variable only at load, so it is removed again.
if not any(name in os.environ for name in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .config import RunConfig, load_config
from .diagnostics import (GibbsData, SymmetricAverageResult, VerdictReport,
                          amenability_report, divergence_probe, gibbs_verify,
                          half_bound_check, pressure_inequality_check,
                          symmetric_on_average_statistic)
from .errors import (FreeshiftError, NumericError, ResourceError,
                     UndefinedRatioError, ValidationError)
from .potentials import (GeometricPotential, Potential, boundary_completion,
                         combine, load_potential_csv,
                         random_inverse_symmetric, window_states)
from .pressure import (FiberSeries, GrowthFit, LiftedTransferMatrix,
                       PerronResult, PressureResult, TransferMatrix,
                       extrapolated_pressure, fiber_partition,
                       fiber_partition_many, full_pressure, growth_rate,
                       perron_eigen, restricted_pressure)
from .quotients import (FiniteQuotient, FreeAbelianQuotient, FreeKillQuotient,
                        Quotient)
from .spectra import (CogrowthResult, FreeEnergyCurve, FreeEnergyPoint,
                      SpectrumCurve, bowen_dimension, cogrowth,
                      default_beta_grid, delta, free_energy,
                      free_energy_curve, legendre)
from .words import (Alphabet, concat_reduce, enumerate_words, inverse_word,
                    is_reduced)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "CogrowthResult",
    "FiberSeries",
    "FiniteQuotient",
    "FreeAbelianQuotient",
    "FreeEnergyCurve",
    "FreeEnergyPoint",
    "FreeKillQuotient",
    "FreeshiftError",
    "GeometricPotential",
    "GibbsData",
    "GrowthFit",
    "LiftedTransferMatrix",
    "NumericError",
    "PerronResult",
    "Potential",
    "PressureResult",
    "Quotient",
    "ResourceError",
    "RunConfig",
    "SpectrumCurve",
    "SymmetricAverageResult",
    "TransferMatrix",
    "UndefinedRatioError",
    "ValidationError",
    "VerdictReport",
    "amenability_report",
    "boundary_completion",
    "bowen_dimension",
    "cogrowth",
    "combine",
    "concat_reduce",
    "default_beta_grid",
    "delta",
    "divergence_probe",
    "enumerate_words",
    "extrapolated_pressure",
    "fiber_partition",
    "fiber_partition_many",
    "free_energy",
    "free_energy_curve",
    "full_pressure",
    "gibbs_verify",
    "growth_rate",
    "half_bound_check",
    "inverse_word",
    "is_reduced",
    "legendre",
    "load_config",
    "load_potential_csv",
    "perron_eigen",
    "pressure_inequality_check",
    "random_inverse_symmetric",
    "restricted_pressure",
    "symmetric_on_average_statistic",
    "window_states",
]
