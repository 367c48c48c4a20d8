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

import numpy as np

from .greens import _gauss_rule, check_points
from .physical import ExperimentConfig, LengthConvention, check_photon_number, derive_params

PI = math.pi
# Gauss-Legendre orders along the propagation line and per cross-section axis
N_LINE = 24
N_CROSS = 6
# epsilon_point's range from the box centre; see _unit_convolution's error
MAX_EPSILON_DISTANCE = 100.0


def _unit_convolution(points) -> np.ndarray:
    """Unit-source convolution at each of the (N, 3) points, exactly.

    It is the Newtonian potential of the uniform box [0, pi]^3, the
    closed form of Nagy, Papp & Benedek (J. Geodesy 74, 2000): the
    signed sum over the box's corners, at offsets (x, y, z) from the
    point, of xy ln(z+r) + yz ln(x+r) + zx ln(y+r) - x^2/2 atan(yz/(xr))
    - y^2/2 atan(zx/(yr)) - z^2/2 atan(xy/(zr)).  For c < 0, ln(c+r) is
    taken as ln((a^2+b^2)/(r-c)): c+r cancels, to 0 on the line of an
    edge.  A term whose prefactor is 0 takes its limit 0.  The corner
    terms cancel far from the box, so rounding error grows about as d^3
    with the distance d from its centre; the worst over 100 directions
    was 4e-14 relative at d = 10, 2e-12 at d = 30 and 9e-11 at d = 100.
    """
    p = np.asarray(points, dtype=float)
    ends = np.stack([-p, PI - p], axis=-1)  # (N, axis, lower/upper corner)
    x = ends[:, 0, :, None, None]
    y = ends[:, 1, None, :, None]
    z = ends[:, 2, None, None, :]
    r = np.sqrt(x * x + y * y + z * z)

    def term(a, b, c):  # ab ln(c+r) - c^2/2 atan(ab/(cr))
        ab = a * b
        ln = np.where(c >= 0, np.log(c + r), np.log((a * a + b * b) / (r - c)))
        return np.where(ab == 0, 0.0, ab * ln) - np.where(c == 0, 0.0, 0.5 * c * c * np.arctan(ab / (c * r)))

    with np.errstate(divide="ignore", invalid="ignore"):
        f = term(x, y, z) + term(y, z, x) + term(z, x, y)
    s = np.array([-1.0, 1.0])
    return np.einsum("nijk,i,j,k->n", f, s, s, s)


def epsilon_point(point) -> float:
    """Plane-wave metric amplitude at a point, per unit P*M: twice the
    unit-source convolution.  Raises ValueError for a point that check_points
    refuses or that lies beyond MAX_EPSILON_DISTANCE of the box centre."""
    p = check_points([point])
    distance = float(np.linalg.norm(p[0] - PI / 2))
    if distance > MAX_EPSILON_DISTANCE:
        raise ValueError(
            f"epsilon_point takes points within {MAX_EPSILON_DISTANCE:g} of the box centre, not {distance:.3g}"
        )
    return 2.0 * float(_unit_convolution(p)[0])


@lru_cache(maxsize=32)
def line_average_epsilon(transverse: str = "center") -> float:
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
    # a Python float, so a shift that overflows is inf without a numpy warning
    return float(np.dot(weights, 2.0 * _unit_convolution(points)))


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
    check_photon_number(n)
    if convention is LengthConvention.RIGID_RODS or n == 0:
        return 0.0
    params = derive_params(config)
    amplitude = params.amplitude(n) * params.mode_index
    shift = 0.5 * amplitude * line_average_epsilon(transverse)
    if not math.isfinite(shift):
        raise ValueError(f"delta_omega/omega is outside float range for n = {n:.3g}")
    return shift
