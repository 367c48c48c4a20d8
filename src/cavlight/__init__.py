"""Metric perturbation of stored cavity light and ultimate bounds on
measuring the speed of light.

Every public name loads its module on first use (PEP 562), so importing
the package, or the closed-form modules behind ``bounds``, ``tradeoff``,
``validate``, ``frequency-shift`` and ``kernel`` (``physical``, ``bounds``,
``closedform`` and ``resonance``), does not import numpy.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "physical": (
        "CODATA", "DimensionlessParams", "ExperimentConfig", "LengthConvention", "ModeIndices",
        "PhysicalConstants", "TimeConvention", "ValidityReport", "derive_params", "storage_time",
        "validate_regime",
    ),
    "bounds": (
        "CoherentFormula", "ProbeKind", "ProbeState", "ScalingTable", "TradeoffSolution", "backaction",
        "comparison_bounds", "optimal_tradeoff", "qcrb", "table1",
    ),
    "modes": ("StressTensor", "stress_components_011"),
    "greens": ("QuadratureSpec", "SourceFunction", "convolve_point", "kernel"),
    "fieldmap": ("FieldMap", "GridSpec"),
    "fields": (
        "MetricPerturbation", "g_integrals", "laplacian_residual", "lightspeed_field", "metric_011",
        "metric_01M", "metric_grid",
    ),
    "resonance": ("frequency_shift",),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
