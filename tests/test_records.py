"""The record classes are plain classes with hand-written constructors:
each keeps the positional order, keywords and defaults of its fields, and
a default container is fresh in every instance."""

import numpy as np
import pytest

from freeshift import (Alphabet, CogrowthResult, FiberSeries, FreeEnergyCurve,
                       FreeEnergyPoint, GeometricPotential, GibbsData,
                       GrowthFit, PerronResult, Potential, PressureResult,
                       RunConfig, SpectrumCurve, SymmetricAverageResult,
                       VerdictReport)
from freeshift.pressure import PressureRows

# class, its fields in constructor order, and the defaults of the trailing
# optional ones; a default that is a container must be fresh per instance
RECORDS = [
    (RunConfig, "d zeta psi quotient betas alpha_count tol_eigen "
                "tol_bisection sigma_factor n_max max_states gibbs_len "
                "horizon return_length out_dir seed config_hash overrides",
     {"overrides": {}}),
    (VerdictReport, "rule quantities slacks classification notes",
     {"notes": []}),
    (SymmetricAverageResult, "value per_g lam_hat horizon", {}),
    (GibbsData, "pressure initial transition c_hat per_level_c", {}),
    (Potential, "d depth values", {}),
    (GeometricPotential, "d depth values", {}),
    (PerronResult, "rho residual iterations", {}),
    (PressureRows, "values slopes residuals start solves iterations "
                   "hessian fits",
     {"solves": 1, "iterations": None, "hessian": None, "fits": None}),
    (PressureResult, "value sigma method residual detail", {"detail": {}}),
    (FiberSeries, "n_max log_values period", {}),
    (GrowthFit, "lam sigma gamma gamma_sigma n_points window rms", {}),
    (FreeEnergyPoint, "beta t sigma method residual evaluations", {}),
    (CogrowthResult, "eta sigma method fiber_rate ambient_rate", {}),
    (FreeEnergyCurve, "betas points", {}),
    (SpectrumCurve, "alphas b_values flags alpha_minus alpha_plus t0", {}),
    (Alphabet, "d", {}),
]

# arguments that pass the constructor checks; the rest are sentinels
VALID = {Potential: (2, 1, np.zeros(4)),
         GeometricPotential: (2, 1, np.full(4, -1.0)),
         Alphabet: (3,)}


@pytest.mark.parametrize("cls,fields,defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_constructor(cls, fields, defaults):
    fields = fields.split()
    args = VALID.get(cls) or tuple(object() for _ in fields)
    record = cls(*args)
    for name, arg in zip(fields, args):
        assert getattr(record, name) is arg, name
    required = args[:len(fields) - len(defaults)]
    first, second = cls(*required), cls(*required)
    for name, default in defaults.items():
        assert getattr(first, name) == default, name
        if isinstance(default, (dict, list)):
            assert getattr(first, name) is not getattr(second, name), name
