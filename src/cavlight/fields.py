"""Metric perturbation and directional light-speed deviation fields.

All point values and maps are dimensionless: for the (011) mode in
units of the amplitude P, for the (01M) mode in units of P as well,
with the mode index M already multiplied in.  The field equation in
box coordinates reduces to a Poisson equation, so every component is a
kernel convolution of one stress source; ``laplacian_residual``
verifies the solution against -4*pi times its source.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .modes import MAX_LARGE_M, MIN_LARGE_M, check_big_m  # the large-M rule and its bounds
from .modes import ROW_LARGE_M, ROWS_011, ROWS_LARGE_M, evaluate_row
from .fieldmap import FieldMap, GridSpec
from .greens import DEFAULT_SPEC, QuadratureSpec, QuadResult, SourceFunction
from .greens import check_points, convolve_point, convolve_points

PI = math.pi

# each library source is its coefficient row over (1, cos 2eta, cos 2zeta,
# cos 2eta cos 2zeta, sin 2eta sin 2zeta), which is all that the
# quadrature and the Monte-Carlo oracle read; the stress rows are modes'
SRC_F1 = SourceFunction(None, "f1", ROWS_011[0, 0])
SRC_F2 = SourceFunction(None, "f2", ROWS_011[1, 1])
SRC_F3 = SourceFunction(None, "f3", ROWS_011[2, 2])
SRC_F3_TILDE = SourceFunction(None, "f3_tilde", ROWS_011[3, 3])
SRC_F4 = SourceFunction(None, "f4", ROWS_011[2, 3])
SRC_UNIT = SourceFunction(None, "unit", (1, 0, 0, 0, 0))
SRC_LARGE_M = SourceFunction(None, "4sin2eta", ROW_LARGE_M)

G_SOURCES = (SRC_F1, SRC_F2, SRC_F3, SRC_F3_TILDE, SRC_F4)
_SRC_G = SourceFunction(None, "g", tuple(src.basis for src in G_SOURCES))

# h^{mu nu} for each key of ROWS_011, in that order: the stress is trace-free,
# so the trace reversal is the identity and each is the convolution of its row
METRIC_COMPONENTS = ("h00", "h11", "h22", "h33", "h23")


class MetricPerturbation(NamedTuple):
    """Metric components at a point, in units of P: each the convolution of
    its own stress row, so the (011) h00..h23 are g1, g2, g3, g3_tilde, g4.

    ``error`` is the engine's estimate of each component's absolute error,
    not a bound (see greens._adaptive); ``converged`` means error <= rel_tol
    times the largest |component|, every component finite, so one that
    vanishes by symmetry is resolved against the scale of the others.
    """

    h00: float
    h11: float
    h22: float
    h33: float
    h23: float
    error: float
    converged: bool

    @property
    def trace(self) -> float:
        return -self.h00 + self.h11 + self.h22 + self.h33

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        """(h00, h11, h22, h33, h23)."""
        return (self.h00, self.h11, self.h22, self.h33, self.h23)


def g_integrals(point, spec: QuadratureSpec = DEFAULT_SPEC) -> MetricPerturbation:
    """The paper's g1, g2, g3, g3_tilde and g4 at one point, in one adaptive
    pass over shared panels: the (011) h00, h11, h22, h33 and h23, so this
    is metric_011."""
    return metric_011(point, spec)


def metric_011(point, spec: QuadratureSpec = DEFAULT_SPEC) -> MetricPerturbation:
    """Metric perturbation of the (011) mode at a point, per unit P."""
    return _metric_point(point, None, spec)


def h_tilde(point, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """The reduced large-M profile: convolution of 4*sin^2(eta')."""
    return convolve_point(SRC_LARGE_M, point, spec)


def metric_01M(
    point, big_m: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> MetricPerturbation:
    """Large-M metric perturbation at a point, per unit P (M multiplied in)."""
    return _metric_point(point, big_m, spec)


def lightspeed_field(metric: MetricPerturbation):
    """Directional relative light-speed deviations (x, y, z) from a metric:
    the coordinate speed along locally straight paths, -(h00 + hii)/2.

    Works elementwise when the components are arrays, as in metric_grid.
    """
    return (
        -0.5 * (metric.h00 + metric.h11),
        -0.5 * (metric.h00 + metric.h22),
        -0.5 * (metric.h00 + metric.h33),
    )


def _metric(pts: np.ndarray, big_m: int | None, spec: QuadratureSpec, threads: int) -> QuadResult:
    """(h00, h11, h22, h33, h23) at each point as an (N, 5) value, with the
    engine's error and converged."""
    if big_m is None:
        return convolve_points(_SRC_G, pts, spec, threads)
    big_m = check_big_m(big_m)
    r = convolve_points(SRC_LARGE_M, pts, spec, threads)
    value = np.zeros((len(pts), len(METRIC_COMPONENTS)))
    value[:, [list(ROWS_011).index(key) for key in ROWS_LARGE_M]] = big_m * r.value[:, None]
    return QuadResult(value, big_m * r.error, r.converged)


def _metric_point(point, big_m: int | None, spec: QuadratureSpec) -> MetricPerturbation:
    r = _metric(check_points([point]), big_m, spec, 1)
    return MetricPerturbation(*r.value[0].tolist(), error=float(r.error[0]), converged=bool(r.converged[0]))


def _mirrored(values: np.ndarray) -> bool:
    """Whether axis values are symmetric about pi/2, to a few ulp.

    linspace(-pi, 2*pi, N) misses exact symmetry by about one ulp, so
    the test cannot be exact equality.  A pinned axis counts only at
    pi/2.
    """
    tol = 4.0 * np.finfo(float).eps * max(PI, float(np.max(np.abs(values))))
    return bool(np.all(np.abs(values + values[::-1] - PI) <= tol))


def _fold(grid: GridSpec, swap_eta_zeta: bool):
    """Canonical representative of every grid node under the field's
    symmetries.

    Each mirrored axis maps index k to min(k, N-1-k); with
    ``swap_eta_zeta`` the (eta, zeta) index pair is then sorted.
    Returns the flat indices of the distinct representatives, the
    position of each node's representative among them, whether an odd
    number of eta/zeta mirrors was used (h23 changes sign), and whether
    the swap was used (h22 and h33 trade places).  A grid with no
    symmetric axis maps every node to itself.
    """
    shape = grid.shape
    idx = np.indices(shape).reshape(3, -1)
    flipped = np.zeros(idx.shape, dtype=bool)
    for axis in range(3):
        if _mirrored(grid.axis_values(axis)):
            mirror = shape[axis] - 1 - idx[axis]
            flipped[axis] = mirror < idx[axis]
            idx[axis] = np.minimum(idx[axis], mirror)
    swapped = np.zeros(idx.shape[1], dtype=bool)
    if swap_eta_zeta:
        swapped = idx[1] > idx[2]
        idx[1:] = np.sort(idx[1:], axis=0)
    nodes, inverse = np.unique(np.ravel_multi_index(idx, shape), return_inverse=True)
    return nodes, inverse, flipped[1] ^ flipped[2], swapped


def metric_grid(
    grid: GridSpec,
    spec: QuadratureSpec = DEFAULT_SPEC,
    big_m: int | None = None,
    threads: int = 0,
) -> FieldMap:
    """Metric components plus light-speed deviations on a grid.

    big_m = None selects the (011) mode; otherwise the large-M mode, for
    an M that modes.check_big_m takes: an integer in [MIN_LARGE_M,
    MAX_LARGE_M], which warns below modes.LARGE_M_WARN_THRESHOLD.
    Only symmetry-distinct nodes are evaluated: the field is unchanged
    under xi -> pi-xi, eta -> pi-eta and zeta -> pi-zeta (h23 changes
    sign under the last two), and the (011) field under eta <-> zeta
    (h22 and h33 trade places), so an axis symmetric about pi/2 is
    folded in half, and equal eta and zeta axes are folded once more.
    The distinct nodes go through convolve_points in node order, so
    output is bit-identical for any worker count.
    """
    swap = big_m is None and np.array_equal(grid.axis_values(1), grid.axis_values(2))
    nodes, inverse, odd, swapped = _fold(grid, swap)
    shape = grid.shape
    value, errors, converged = (a[inverse] for a in _metric(grid.points()[nodes], big_m, spec, threads))
    # 0 - h rather than -h keeps an exact zero (all of large-M h23) from
    # becoming -0, which the CSV would print as "-0"
    value[odd, 4] = 0.0 - value[odd, 4]
    value[np.ix_(swapped, [2, 3])] = value[np.ix_(swapped, [3, 2])]

    comp = {name: value[:, i].reshape(shape) for i, name in enumerate(METRIC_COMPONENTS)}
    metric = MetricPerturbation(**comp, error=errors.reshape(shape), converged=converged.reshape(shape))
    comp["dcx"], comp["dcy"], comp["dcz"] = lightspeed_field(metric)
    return FieldMap(grid, comp, metric.error, metric.converged, big_m)


class ResidualStats(NamedTuple):
    """Discrete-Laplacian residual of a field map against its source."""

    max_relative: float


MAX_RESIDUAL_SPACING = PI / 32


def laplacian_residual(field: FieldMap) -> ResidualStats:
    """Compare the 7-point Laplacian of each metric component to -4*pi
    times its stress source.

    Requires a uniform interior grid (strictly inside (0, pi)^3) with
    spacing at most pi/32.  Residuals are normalized by the largest
    source magnitude over the compared nodes.
    """
    dx, dy, dz = field.grid.spacings()
    if min(dx, dy, dz) <= 0:
        raise ValueError("residual check needs a 3D grid (counts >= 3 per axis)")
    if abs(dx - dy) > 1e-12 or abs(dx - dz) > 1e-12:
        raise ValueError("residual check needs an isotropic grid")
    if dx > MAX_RESIDUAL_SPACING * (1 + 1e-9):
        raise ValueError(f"grid too coarse: spacing {dx:.4g} > pi/32")
    for i in range(3):
        vals = field.grid.axis_values(i)
        if vals[0] <= 0.0 or vals[-1] >= PI:
            raise ValueError("residual grid must lie strictly inside the cavity")

    ys = field.grid.axis_values(1)
    zs = field.grid.axis_values(2)
    eta, zeta = np.meshgrid(ys[1:-1], zs[1:-1], indexing="ij")

    # the map checked its M, and warned when it was computed
    scale, rows = (1.0, ROWS_011) if field.big_m is None else (float(field.big_m), ROWS_LARGE_M)

    residuals = []
    norm = 0.0
    for name, key in zip(METRIC_COMPONENTS, ROWS_011):
        h = field.components[name]
        lap = (
            h[2:, 1:-1, 1:-1]
            + h[:-2, 1:-1, 1:-1]
            + h[1:-1, 2:, 1:-1]
            + h[1:-1, :-2, 1:-1]
            + h[1:-1, 1:-1, 2:]
            + h[1:-1, 1:-1, :-2]
            - 6.0 * h[1:-1, 1:-1, 1:-1]
        ) / dx**2
        target = -4.0 * PI * scale * evaluate_row(rows.get(key, ()), eta, zeta)[None, :, :]
        target = np.broadcast_to(target, lap.shape)
        residuals.append(np.abs(lap - target))
        norm = max(norm, float(np.max(np.abs(target))))
    # t00 is positive strictly inside the cavity, so norm > 0
    return ResidualStats(max(float(r.max()) for r in residuals) / norm)
