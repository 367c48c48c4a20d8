"""Closed forms at one point, in the standard library alone.

The point rule, the line kernel I(xi, eta, zeta), the Newtonian potential
of the box [0, pi]^3 and the Gauss-Legendre rule on [0, 1] need only
``math``, so the ``frequency-shift`` and ``kernel`` commands load no
numpy.  ``greens`` keeps the vectorized kernel and takes from here its point
bound, message, singular-line error, Gauss rule and near-axis values.
"""

from __future__ import annotations

import math

from .physical import check_real

PI = math.pi

# bound on |coordinate| of every evaluation point: against 60-digit arithmetic the
# kernel's worst relative error over 20 directions is 8e-16 at distance 10, 8e-11
# at 1e6, 7e-9 at 1e8 and 1e-2 at 1e14, and past about 1e154 it is NaN
MAX_COORDINATE = 1e6
POINT_RULE = (
    "evaluation points must form a non-empty (N, 3) array of three finite coordinates, "
    f"each within +-{MAX_COORDINATE:g}"
)
SINGULAR_LINE = "kernel is singular at rho=0 with xi={} in [0, pi]"
# below this rho^2 (rho < 1e-150) the kernel's stable sums or their ratio
# can leave the normal range within |c| <= MAX_COORDINATE, so line_kernel takes
# the logs of the sums apart there, also for greens' vectorized kernel
NEAR_AXIS_RHO2 = 1e-300


class SingularKernelError(ValueError):
    """Kernel evaluated on its singular line (rho = 0, 0 <= xi <= pi)."""


def check_point(point) -> tuple[float, float, float]:
    """The point as three floats; ValueError(POINT_RULE) unless it is three
    coordinates that physical.check_real takes within +-MAX_COORDINATE."""
    try:
        p = tuple(check_real(c, "coordinate", ge=-MAX_COORDINATE, le=MAX_COORDINATE) for c in point)
    except (TypeError, ValueError):  # not a sequence of numbers in range
        p = ()
    if len(p) != 3:
        raise ValueError(POINT_RULE)
    return p


def _stable_sum(x: float, rho2: float) -> float:
    """x + sqrt(x^2 + rho2), as rho2 / (sqrt(x^2 + rho2) - x) where x < 0."""
    s = math.sqrt(x * x + rho2)
    return x + s if x >= 0.0 else rho2 / (s - x)


def line_kernel(xi: float, eta: float, zeta: float) -> float:
    """Kernel I(xi, eta, zeta) at one point: ln of the ratio of the stable
    sums at the segment's ends, as greens._kernel_arrays computes it.

    Raises SingularKernelError on the singular line and ValueError for a
    point that check_point refuses."""
    x, e, z = check_point((xi, eta, zeta))
    rho2 = e * e + z * z
    if rho2 < NEAR_AXIS_RHO2:
        if e == z == 0.0 and 0.0 <= x <= PI:
            raise SingularKernelError(SINGULAR_LINE.format(xi))
        # the logs apart, with each end's B = |x| + hypot(x, rho): on the
        # segment ln B0 + ln B1 - 2 ln rho; off it ln rho^2 cancels, and on
        # the axis B1/B0 is the limit (pi - xi)/(-xi) resp. B0/B1 is xi/(xi - pi)
        rho = math.hypot(e, z)
        u = x - PI
        lo = abs(x) + math.hypot(x, rho)
        hi = abs(u) + math.hypot(u, rho)
        if x >= 0.0 > u:
            return math.log(lo) + math.log(hi) - 2.0 * math.log(rho)
        return math.log(hi / lo if x < 0.0 else lo / hi)
    return math.log(_stable_sum(x, rho2) / _stable_sum(x - PI, rho2))


def _prism_term(a: float, b: float, c: float, r: float) -> float:
    """ab ln(c+r) - c^2/2 atan(ab/(cr)); a factor that is 0 takes its limit 0."""
    ab = a * b
    if not ab:
        return 0.0
    # for c < 0, c + r cancels: ln(c+r) = ln((a^2+b^2)/(r-c)), which rounds
    # to ln 0 only where |ab| is subnormal and the term is below 1e-320
    arg = c + r if c >= 0.0 else (a * a + b * b) / (r - c)
    out = ab * math.log(arg) if arg else 0.0
    if c * c:  # c^2 > 0, so c r >= c^2 does not round to 0
        out -= 0.5 * c * c * math.atan(ab / (c * r))
    return out


def box_potential(xi: float, eta: float, zeta: float) -> float:
    """Newtonian potential of the uniform box [0, pi]^3 at one point.

    The closed form of Nagy, Papp & Benedek (J. Geodesy 74, 2000): the
    signed sum over the box's corners, at offsets (x, y, z) from the
    point, of xy ln(z+r) + yz ln(x+r) + zx ln(y+r) - x^2/2 atan(yz/(xr))
    - y^2/2 atan(zx/(yr)) - z^2/2 atan(xy/(zr)).  For c < 0, ln(c+r) is
    taken as ln((a^2+b^2)/(r-c)): c+r cancels, to 0 on the line of an
    edge.  A term whose prefactor is 0 takes its limit 0.  The corner
    terms cancel far from the box, so rounding error grows about as d^3
    with the distance d from its centre; the worst over 100 directions
    was 4e-14 relative at d = 10, 2e-12 at d = 30 and 9e-11 at d = 100.
    """
    terms = []
    for sx, x in ((-1.0, -xi), (1.0, PI - xi)):
        for sy, y in ((-1.0, -eta), (1.0, PI - eta)):
            for sz, z in ((-1.0, -zeta), (1.0, PI - zeta)):
                r = math.sqrt(x * x + y * y + z * z)
                f = _prism_term(x, y, z, r) + _prism_term(y, z, x, r) + _prism_term(z, x, y, r)
                terms.append(sx * sy * sz * f)
    return math.fsum(terms)


def gauss_legendre(order: int) -> tuple[list[float], list[float]]:
    """Gauss-Legendre nodes, ascending, and weights on [0, 1].

    Each root of P_order comes from Newton's method on the three-term
    recurrence, started at Tricomi's estimate; the nodes are placed in
    mirror pairs about 1/2, and the weight is 1 / ((1 - x^2) P'(x)^2).
    """
    nodes = [0.0] * order
    weights = [0.0] * order
    for i in range((order + 1) // 2):
        x = math.cos(PI * (i + 0.75) / (order + 0.5))  # the (i+1)-th largest root
        for _ in range(100):
            p, dp = _legendre(order, x)
            dx = p / dp
            x -= dx
            if abs(dx) <= 1e-16:
                break
        _, dp = _legendre(order, x)
        nodes[i], nodes[order - 1 - i] = 0.5 * (1.0 - x), 0.5 * (x + 1.0)
        weights[i] = weights[order - 1 - i] = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return nodes, weights


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) by the recurrence k P_k = (2k-1) x P_{k-1} - (k-1) P_{k-2}."""
    p0, p1 = 1.0, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
