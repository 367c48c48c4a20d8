"""The dimensionless stress-tensor components that cavity eigenmodes source.

Two mode families are supported: the fundamental (0,1,1) mode, whose
time-averaged stress tensor is the paper's four trigonometric functions
f1..f4, and the high-index (0,1,M) mode in the large-M limit, where only
the 00/33 components survive (plus rapidly oscillating 11/22 terms that
average out).  Every other component is a coefficient row over greens'
five basis terms, the very row that the maps integrate.

All stress values are dimensionless, in units of n*hbar*Omega/V.
Coordinates (xi, eta, zeta) are the box coordinates rescaled to [0, pi].
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .greens import _BASIS, _TRIG
from .physical import check_count

# The large-M (0,1,M) form drops corrections of order 1/M: below 64 they are
# no longer clearly negligible, and below 8 (1/M above 12%) it is refused.
MIN_LARGE_M = 8
LARGE_M_WARN_THRESHOLD = 64
# h_tilde peaks at about 54.6, at the cavity centre, and a map's dcz sums
# two copies of M*h_tilde; up to this M every map value stays finite with
# room for quadrature error
MAX_LARGE_M = 10**306
# the large-M t00 and t33, 4 sin^2 eta, as a row like those of ROWS_011
ROW_LARGE_M = (2, -2, 0, 0, 0)


def check_big_m(big_m) -> int:
    """big_m as an int, if it is an integer in [MIN_LARGE_M, MAX_LARGE_M],
    else ValueError; a UserWarning below LARGE_M_WARN_THRESHOLD."""
    big_m = check_count(big_m, "M", MIN_LARGE_M, MAX_LARGE_M)
    if big_m < LARGE_M_WARN_THRESHOLD:
        warnings.warn(f"large-M form used with M={big_m}; dropped corrections are of order 1/M", stacklevel=3)
    return big_m


# the basis row of every (011) component t^{mu nu}, mu <= nu, that does not vanish
ROWS_011 = {
    (0, 0): (2, -1, -1, 0, 0),
    (1, 1): (0, 1, 1, -2, 0),
    (2, 2): (1, 0, -2, 1, 0),
    (3, 3): (1, -2, 0, 1, 0),
    (2, 3): (0, 0, 0, 0, 1),
}
# the same for the large-M (0,1,M) mode, without its oscillating 11 and 22
ROWS_LARGE_M = {(0, 0): ROW_LARGE_M, (3, 3): ROW_LARGE_M}


def evaluate_row(row, eta, zeta, partial: int | None = None):
    """The stress a basis row encodes at (eta, zeta), or with partial 0 or 1
    its first partial in eta or zeta.  Only the terms the row uses are
    evaluated, and each trig factor once."""
    axes = (np.asarray(eta, dtype=float), np.asarray(zeta, dtype=float))
    trig = functools.cache(lambda axis, f: _TRIG[f](2.0 * axes[axis]))
    total = np.zeros(np.broadcast(*axes).shape)
    for coef, pair in zip(row, _BASIS):
        if not coef or (partial is not None and not pair[partial]):
            continue  # unused, or constant along the partial's axis
        for axis, f in enumerate(pair):
            if axis == partial:
                # d/dx of cos 2x is -2 sin 2x, and of sin 2x is 2 cos 2x
                coef, f = coef * (-2.0 if f == 1 else 2.0), 3 - f
            if f:
                coef = coef * trig(axis, f)
        total += coef
    return total


# the paper's t00, t11, t22, t33 and t23 = t32 of the (011) mode
f1 = functools.partial(evaluate_row, ROWS_011[0, 0])
f2 = functools.partial(evaluate_row, ROWS_011[1, 1])
f3 = functools.partial(evaluate_row, ROWS_011[2, 2])
f3_tilde = functools.partial(evaluate_row, ROWS_011[3, 3])
f4 = functools.partial(evaluate_row, ROWS_011[2, 3])


class StressTensor:
    """Evaluator for the dimensionless expectation stress tensor t^{mu nu}.

    Values are relative to n*hbar*Omega/V.  Pure functions of (eta, zeta);
    there is no xi dependence inside the cavity, and the tensor vanishes
    outside.  ``big_m`` of None selects the (0,1,1) mode, an M that
    check_big_m takes the large-M (0,1,M) form.
    """

    def __init__(self, big_m: int | None = None):
        self.big_m = None if big_m is None else check_big_m(big_m)
        self._rows = ROWS_011 if big_m is None else ROWS_LARGE_M

    def _row(self, mu: int, nu: int):
        """The basis row of t^{mu nu}; an empty one for a zero component."""
        return self._rows.get((min(mu, nu), max(mu, nu)), ())

    def component(self, mu: int, nu: int, eta, zeta):
        """t^{mu nu}(eta, zeta), with mu, nu in 0..3."""
        if not (0 <= mu <= 3 and 0 <= nu <= 3):
            raise ValueError("tensor indices must be in 0..3")
        if self.big_m is not None and (mu, nu) in ((1, 1), (2, 2)):
            osc = 4.0 * np.sin(eta) ** 2 * np.cos(np.multiply(2.0 * self.big_m, zeta))
            return osc if mu == 1 else -osc
        return evaluate_row(self._row(mu, nu), eta, zeta)

    def trace(self, eta, zeta):
        """-t00 + t11 + t22 + t33; identically zero for the e.m. field."""
        return sum(sign * self.component(mu, mu, eta, zeta) for mu, sign in enumerate((-1, 1, 1, 1)))

    def divergence(self, eta, zeta) -> np.ndarray:
        """Spatial divergence d_j t^{ij} from the analytic partials:
        d_eta t^{i2} + d_zeta t^{i3}, since nothing depends on xi.

        Valid in the open interior (0, pi)^2.
        """
        div = np.array([evaluate_row(self._row(i, 2), eta, zeta, 0) + evaluate_row(self._row(i, 3), eta, zeta, 1)
                        for i in (1, 2, 3)])
        if self.big_m is not None:
            # the oscillatory t22 term carries the only surviving partial;
            # its non-vanishing divergence reflects the dropped 1/M corrections
            div[1] -= 4.0 * np.sin(np.multiply(2.0, eta)) * np.cos(np.multiply(2.0 * self.big_m, zeta))
        return div


def stress_components_011() -> StressTensor:
    """Stress tensor of the (0,1,1) mode."""
    return StressTensor()


def stress_components_01M(big_m: int) -> StressTensor:
    """Large-M stress tensor of the (0,1,M) mode, for an M that check_big_m takes."""
    return StressTensor(big_m)
