"""Global cavity resonance shift for the plane-wave probe.

With symmetric boundary conditions the perturbed metric is a constant
multiple of the unit-source convolution; the resonance shift follows
from the change of optical path length along the propagation direction.
Whether a shift exists at all depends on how the cavity length is
defined: a light-signal definition picks up the metric, rigid rods do
not.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

from .greens import DEFAULT_SPEC, QuadratureSpec, QuadResult, _gauss_rule, convolve_points
from .fields import SRC_UNIT
from .physical import ExperimentConfig, derive_params

PI = math.pi
# Gauss-Legendre orders along the propagation line and per cross-section axis
N_LINE = 24
N_CROSS = 6


class LengthConvention(Enum):
    LIGHT_SIGNAL = "light-signal"
    RIGID_RODS = "rigid-rods"


def epsilon_points(points, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """Plane-wave metric amplitude at each of the (N, 3) points, per unit P*M.

    epsilon is twice the unit-source convolution.  The points are
    integrated serially.
    """
    r = convolve_points(SRC_UNIT, points, spec)
    return QuadResult(2.0 * r.value, 2.0 * r.error, r.converged)


def epsilon_point(point, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """Plane-wave metric amplitude at a point, per unit P*M."""
    r = epsilon_points([point], spec)
    return QuadResult(float(r.value[0]), float(r.error[0]), bool(r.converged[0]))


@lru_cache(maxsize=32)
def line_average_epsilon(spec: QuadratureSpec = DEFAULT_SPEC, transverse: str = "center") -> float:
    """Average of the dimensionless epsilon along the propagation line.

    ``transverse='center'`` averages along (xi, pi/2, pi/2);
    ``'average'`` additionally averages over the cross-section.
    """
    x, ws = _gauss_rule(N_LINE)  # on [0, 1], so the weights sum to 1
    xs = PI * x
    if transverse == "center":
        trans = [(PI / 2, PI / 2, 1.0)]
    elif transverse == "average":
        xc, wc = _gauss_rule(N_CROSS)
        pc = PI * xc
        trans = [(e, z, we * wz) for e, we in zip(pc, wc) for z, wz in zip(pc, wc)]
    else:
        raise ValueError(f"unknown transverse option {transverse!r}")
    points = [(xi, eta0, zeta0) for eta0, zeta0, _ in trans for xi in xs]
    weights = [wt * wx for _, _, wt in trans for wx in ws]
    values = epsilon_points(points, spec).value
    total = 0.0
    for wt, value in zip(weights, values):
        total += wt * value
    # a Python float, so a shift that overflows is inf without a numpy warning
    return float(total)


def frequency_shift(
    config: ExperimentConfig,
    n: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    convention: LengthConvention = LengthConvention.LIGHT_SIGNAL,
    transverse: str = "center",
) -> float:
    """Relative resonance-frequency shift delta_omega/omega for n photons.

    Under the rigid-rods length definition the mode frequency is
    unchanged and the result is exactly zero.
    """
    if n < 0:
        raise ValueError("photon number must be non-negative")
    if convention is LengthConvention.RIGID_RODS or n == 0:
        return 0.0
    params = derive_params(config)
    amplitude = params.amplitude(n) * params.mode_index
    return 0.5 * amplitude * line_average_epsilon(spec, transverse)
