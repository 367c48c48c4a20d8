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
from functools import lru_cache

from .closedform import PI, box_potential, gauss_legendre
from .physical import ExperimentConfig, LengthConvention, check_instance, check_real, derive_params

# Gauss-Legendre orders along the propagation line and per cross-section axis
N_LINE = 24
N_CROSS = 6


def _check_transverse(transverse):
    """transverse, if it is "center" or "average", else ValueError; never hashes it."""
    if transverse not in ("center", "average"):
        raise ValueError(f"unknown transverse option {transverse!r}")
    return transverse


@lru_cache(maxsize=32)
def line_average_epsilon(transverse: str = "center") -> float:
    """Average of the dimensionless epsilon along the propagation line.

    epsilon, the plane-wave metric amplitude per unit P*M, is twice the
    unit-source convolution, which closedform.box_potential gives.
    ``transverse='center'`` averages along (xi, pi/2, pi/2);
    ``'average'`` additionally averages over the cross-section.
    """
    x, ws = gauss_legendre(N_LINE)  # on [0, 1], so the weights sum to 1
    xs = [PI * t for t in x]
    if _check_transverse(transverse) == "center":
        trans = [(PI / 2, PI / 2, 1.0)]
    else:
        xc, wc = gauss_legendre(N_CROSS)
        pc = [PI * t for t in xc]
        trans = [(e, z, we * wz) for e, we in zip(pc, wc) for z, wz in zip(pc, wc)]
    return math.fsum(
        wt * wx * (2.0 * box_potential(xi, eta0, zeta0)) for eta0, zeta0, wt in trans for xi, wx in zip(xs, ws)
    )


def frequency_shift(
    config: ExperimentConfig,
    n: float,
    convention: LengthConvention = LengthConvention.LIGHT_SIGNAL,
    transverse: str = "center",
) -> float:
    """Relative resonance-frequency shift delta_omega/omega for n photons.

    Under the rigid-rods length definition the mode frequency is
    unchanged and the result is exactly zero.  Raises ValueError when
    the shift leaves float range.
    """
    n = check_real(n, "photon number", ge=0)
    check_instance(convention, LengthConvention, "convention")
    # checked before line_average_epsilon's cache hashes it
    _check_transverse(transverse)
    if convention is LengthConvention.RIGID_RODS or n == 0:
        return 0.0
    params = derive_params(config)
    amplitude = params.amplitude(n) * params.mode_index
    shift = 0.5 * amplitude * line_average_epsilon(transverse)
    if not math.isfinite(shift):
        raise ValueError(f"delta_omega/omega is outside float range for n = {n:.3g}")
    return shift
