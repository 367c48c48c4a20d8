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

import numpy as np

from .greens import DEFAULT_SPEC, QuadratureSpec, QuadResult, convolve_point
from .fields import SRC_UNIT
from .physical import ExperimentConfig, derive_params

PI = math.pi
# Gauss-Legendre orders along the propagation line and per cross-section axis
N_LINE = 24
N_CROSS = 6


class LengthConvention(Enum):
    LIGHT_SIGNAL = "light-signal"
    RIGID_RODS = "rigid-rods"


def epsilon_point(point, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """Plane-wave metric amplitude at a point, per unit P*M."""
    r = convolve_point(SRC_UNIT, point, spec)
    return QuadResult(2.0 * r.value, 2.0 * r.error, r.converged)


@lru_cache(maxsize=32)
def line_average_epsilon(spec: QuadratureSpec = DEFAULT_SPEC, transverse: str = "center") -> float:
    """Average of the dimensionless epsilon along the propagation line.

    ``transverse='center'`` averages along (xi, pi/2, pi/2);
    ``'average'`` additionally averages over the cross-section.
    """
    x, w = np.polynomial.legendre.leggauss(N_LINE)
    xs = 0.5 * PI * (x + 1.0)
    ws = 0.5 * w  # normalized: weights sum to 1
    if transverse == "center":
        trans = [(PI / 2, PI / 2, 1.0)]
    elif transverse == "average":
        xc, wc = np.polynomial.legendre.leggauss(N_CROSS)
        pc = 0.5 * PI * (xc + 1.0)
        wc = 0.5 * wc
        trans = [(e, z, we * wz) for e, we in zip(pc, wc) for z, wz in zip(pc, wc)]
    else:
        raise ValueError(f"unknown transverse option {transverse!r}")
    total = 0.0
    for eta0, zeta0, wt in trans:
        for xi, wx in zip(xs, ws):
            total += wt * wx * epsilon_point((xi, eta0, zeta0), spec).value
    return total


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
