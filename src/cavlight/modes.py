"""The dimensionless stress-tensor components that cavity eigenmodes source.

Two mode families are supported: the fundamental (0,1,1) mode, whose
time-averaged stress tensor is expressed through four trigonometric
functions f1..f4 of the transverse coordinates, and the high-index
(0,1,M) mode in the large-M limit, where only the 00/33 components
survive (plus rapidly oscillating 11/22 terms that average out).

All stress values are dimensionless, in units of n*hbar*Omega/V.
Coordinates (xi, eta, zeta) are the box coordinates rescaled to [0, pi].
"""

from __future__ import annotations

import warnings

import numpy as np

from .physical import check_count

# The large-M (0,1,M) form drops corrections of order 1/M: below 64 they are
# no longer clearly negligible, and below 8 (1/M above 12%) it is refused.
MIN_LARGE_M = 8
LARGE_M_WARN_THRESHOLD = 64
# h_tilde peaks at about 54.6, at the cavity centre, and a map's dcz sums
# two copies of M*h_tilde; up to this M every map value stays finite with
# room for quadrature error
MAX_LARGE_M = 10**306


def check_big_m(big_m) -> int:
    """big_m as an int, if it is an integer in [MIN_LARGE_M, MAX_LARGE_M],
    else ValueError; a UserWarning below LARGE_M_WARN_THRESHOLD."""
    big_m = check_count(big_m, "M", MIN_LARGE_M, MAX_LARGE_M)
    if big_m < LARGE_M_WARN_THRESHOLD:
        warnings.warn(f"large-M form used with M={big_m}; dropped corrections are of order 1/M", stacklevel=3)
    return big_m


# -- dimensionless stress components for the (0,1,1) mode -------------------

def f1(eta, zeta):
    """t00 of the (011) mode."""
    return 2.0 - np.cos(2.0 * eta) - np.cos(2.0 * zeta)


def f2(eta, zeta):
    """t11 of the (011) mode."""
    c_eta = np.cos(2.0 * eta)
    c_zeta = np.cos(2.0 * zeta)
    return c_eta + c_zeta - 2.0 * c_eta * c_zeta


def f3(eta, zeta):
    """t22 of the (011) mode."""
    c_zeta = np.cos(2.0 * zeta)
    return 1.0 - 2.0 * c_zeta + c_zeta * np.cos(2.0 * eta)


def f3_tilde(eta, zeta):
    """t33 of the (011) mode: f3 with eta and zeta swapped."""
    return f3(zeta, eta)


def f4(eta, zeta):
    """t23 = t32 of the (011) mode."""
    return np.sin(2.0 * eta) * np.sin(2.0 * zeta)


# (mu, nu) with mu <= nu of every (011) component that does not vanish
_COMPONENTS_011 = {(0, 0): f1, (1, 1): f2, (2, 2): f3, (3, 3): f3_tilde, (2, 3): f4}


class StressTensor:
    """Evaluator for the dimensionless expectation stress tensor t^{mu nu}.

    Values are relative to n*hbar*Omega/V.  Pure functions of (eta, zeta);
    there is no xi dependence inside the cavity, and the tensor vanishes
    outside.  ``big_m`` of None selects the (0,1,1) mode, an M that
    check_big_m takes the large-M (0,1,M) form.
    """

    def __init__(self, big_m: int | None = None):
        self.big_m = None if big_m is None else check_big_m(big_m)

    def component(self, mu: int, nu: int, eta, zeta):
        """t^{mu nu}(eta, zeta), with mu, nu in 0..3."""
        if not (0 <= mu <= 3 and 0 <= nu <= 3):
            raise ValueError("tensor indices must be in 0..3")
        eta = np.asarray(eta, dtype=float)
        zeta = np.asarray(zeta, dtype=float)
        key = (min(mu, nu), max(mu, nu))
        if self.big_m is None:
            fn = _COMPONENTS_011.get(key)
            if fn is None:
                return np.zeros(np.broadcast(eta, zeta).shape)
            return fn(eta, zeta)
        m = self.big_m
        base = 4.0 * np.sin(eta) ** 2
        if key in ((0, 0), (3, 3)):
            return base + np.zeros(np.broadcast(eta, zeta).shape)
        if key == (1, 1):
            return base * np.cos(2.0 * m * zeta)
        if key == (2, 2):
            return -base * np.cos(2.0 * m * zeta)
        return np.zeros(np.broadcast(eta, zeta).shape)

    def trace(self, eta, zeta):
        """-t00 + t11 + t22 + t33; identically zero for the e.m. field."""
        return (
            -self.component(0, 0, eta, zeta)
            + self.component(1, 1, eta, zeta)
            + self.component(2, 2, eta, zeta)
            + self.component(3, 3, eta, zeta)
        )

    def divergence(self, eta, zeta) -> np.ndarray:
        """Spatial divergence d_j t^{ij} from the analytic partials.

        Valid in the open interior (0, pi)^2; nothing depends on xi.
        """
        eta = np.asarray(eta, dtype=float)
        zeta = np.asarray(zeta, dtype=float)
        zero = np.zeros(np.broadcast(eta, zeta).shape)
        if self.big_m is None:
            # row 1: t11 is xi-independent and t12 = t13 = 0
            d_eta_f3 = -2.0 * np.sin(2.0 * eta) * np.cos(2.0 * zeta)
            d_zeta_f4 = 2.0 * np.sin(2.0 * eta) * np.cos(2.0 * zeta)
            d_eta_f4 = 2.0 * np.cos(2.0 * eta) * np.sin(2.0 * zeta)
            d_zeta_f3t = -2.0 * np.cos(2.0 * eta) * np.sin(2.0 * zeta)
            return np.array([zero, d_eta_f3 + d_zeta_f4, d_eta_f4 + d_zeta_f3t])
        m = self.big_m
        # the oscillatory t22 term carries the only surviving partial;
        # its non-vanishing divergence reflects the dropped 1/M corrections
        d_eta_t22 = -4.0 * np.sin(2.0 * eta) * np.cos(2.0 * m * zeta)
        return np.array([zero, d_eta_t22, zero])


def stress_components_011() -> StressTensor:
    """Stress tensor of the (0,1,1) mode."""
    return StressTensor()


def stress_components_01M(big_m: int) -> StressTensor:
    """Large-M stress tensor of the (0,1,M) mode, for an M that check_big_m takes."""
    return StressTensor(big_m)
