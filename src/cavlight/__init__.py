"""Metric perturbation of stored cavity light and ultimate bounds on
measuring the speed of light."""

__version__ = "0.1.0"

from .physical import (  # noqa: F401
    CODATA,
    DimensionlessParams,
    ExperimentConfig,
    PhysicalConstants,
    TimeConvention,
    ValidityReport,
    derive_params,
    storage_time,
    validate_regime,
)
from .modes import ModeIndices, StressTensor, stress_components_011, stress_components_01M  # noqa: F401
from .greens import (  # noqa: F401
    QuadratureSpec,
    SourceFunction,
    convolve_point,
    kernel,
    mc_oracle,
)
from .fieldmap import FieldMap, GridSpec  # noqa: F401
from .fields import (  # noqa: F401
    GIntegrals,
    MetricPerturbation,
    g_integrals,
    laplacian_residual,
    lightspeed_field,
    metric_011,
    metric_01M,
    metric_grid,
)
from .resonance import LengthConvention, epsilon_point, frequency_shift  # noqa: F401
from .bounds import (  # noqa: F401
    CoherentFormula,
    ProbeKind,
    ProbeState,
    ScalingTable,
    TradeoffSolution,
    backaction,
    comparison_bounds,
    optimal_tradeoff,
    qcrb,
    table1,
)
