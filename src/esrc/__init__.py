"""Ergodic sum-rate capacity of zero-forcing MU-MIMO receivers.

Monte Carlo simulation of semi-correlated complex Nakagami-m fading with
banded exponential correlation, per-user post-processing SINR distribution
fitting, and the matching analytic capacity machinery (closed-form mean,
MGF, and Laplace-inverted sum-capacity densities).

Importing the package pins BLAS and OpenMP to one thread unless the
environment already sets a count.  This must happen before numpy loads;
once numpy is imported, its BLAS keeps the thread count it started with.
The Monte Carlo kernel forks one worker per CPU, and a second BLAS thread
in each would oversubscribe the cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from esrc.analytic import (
    BetaVector,
    capacity_pdf,
    default_capacity_grid,
    esrc_closed_form,
    mgf_mean_check,
    sum_capacity_mgf,
)
from esrc.channel import (
    FadingParams,
    SemiCorrelationMode,
    compose_channel,
    sample_channel_matrix,
    sample_nakagami_component,
)
from esrc.config import SystemConfig
from esrc.correlation import (
    CorrelationSpec,
    NotPositiveSemidefiniteError,
    build_banded_correlation,
    matrix_sqrt,
    psd_check,
)
from esrc.runner import (
    ConfigError,
    SweepPlan,
    SweepRow,
    emit_csv,
    parse_config,
    point_seed,
    run_sweep,
)
from esrc.specfun import (
    LaplaceInversionError,
    NumericalError,
    exp_scaled_e1,
    invert_laplace,
)
from esrc.statfit import (
    FitConvergenceError,
    GammaFit,
    chi_square_gof,
    fit_exponential,
    fit_gamma_ml,
    ks_gof,
)
from esrc.zf import (
    EsrcResult,
    MonteCarloAbort,
    SingularChannelError,
    SinrSampleSet,
    monte_carlo_esrc,
    sum_rate,
    zf_sinr,
)

__all__ = [
    "BetaVector",
    "ConfigError",
    "CorrelationSpec",
    "EsrcResult",
    "FadingParams",
    "FitConvergenceError",
    "GammaFit",
    "LaplaceInversionError",
    "MonteCarloAbort",
    "NotPositiveSemidefiniteError",
    "NumericalError",
    "SemiCorrelationMode",
    "SingularChannelError",
    "SinrSampleSet",
    "SweepPlan",
    "SweepRow",
    "SystemConfig",
    "build_banded_correlation",
    "capacity_pdf",
    "chi_square_gof",
    "compose_channel",
    "default_capacity_grid",
    "emit_csv",
    "esrc_closed_form",
    "exp_scaled_e1",
    "fit_exponential",
    "fit_gamma_ml",
    "invert_laplace",
    "ks_gof",
    "matrix_sqrt",
    "mgf_mean_check",
    "monte_carlo_esrc",
    "parse_config",
    "point_seed",
    "psd_check",
    "run_sweep",
    "sample_channel_matrix",
    "sample_nakagami_component",
    "sum_capacity_mgf",
    "sum_rate",
    "zf_sinr",
]

__version__ = "0.1.0"
