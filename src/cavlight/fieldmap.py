"""Grid specification and named field arrays with per-point error estimates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import MAX_COORDINATE
from .physical import check_count, check_real

AxisRange = tuple[float, float, int]


@dataclass(frozen=True)
class GridSpec:
    """Rectilinear evaluation grid in box coordinates (units of pi).

    Each axis is (start, stop, count).  A single-point axis (count 1)
    pins that coordinate, which is how planar slices are expressed.  The
    ends lie within +-MAX_COORDINATE, as every evaluation point does, and
    the count is an integer of at least 1.
    """

    xi: AxisRange = (-np.pi, 2.0 * np.pi, 48)
    eta: AxisRange = (-np.pi, 2.0 * np.pi, 48)
    zeta: AxisRange = (-np.pi, 2.0 * np.pi, 48)

    def __post_init__(self):
        for name, (start, stop, count) in zip(("xi", "eta", "zeta"), self.axes):
            check_count(count, f"{name} axis count", 1)
            for end, value in (("start", start), ("stop", stop)):
                check_real(value, f"{name} axis {end}", ge=-MAX_COORDINATE, le=MAX_COORDINATE)
            if count > 1 and stop <= start:
                raise ValueError(f"{name} axis range must be increasing")

    @property
    def axes(self) -> tuple[AxisRange, AxisRange, AxisRange]:
        return (self.xi, self.eta, self.zeta)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.xi[2], self.eta[2], self.zeta[2])

    def axis_values(self, i: int) -> np.ndarray:
        start, stop, count = self.axes[i]
        if count == 1:
            return np.array([start])
        return np.linspace(start, stop, count)

    def points(self) -> np.ndarray:
        """All grid nodes as an (N, 3) array, xi-major order."""
        xs, ys, zs = (self.axis_values(i) for i in range(3))
        grid = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1)
        return grid.reshape(-1, 3)

    def spacings(self) -> tuple[float, float, float]:
        out = []
        for start, stop, count in self.axes:
            out.append((stop - start) / (count - 1) if count > 1 else 0.0)
        return tuple(out)


@dataclass
class FieldMap:
    """Named component arrays on a grid, with error estimates.

    Components are dimensionless, in units of the amplitude P.  ``errors``
    bounds the absolute quadrature error of each component at a node;
    ``converged`` flags nodes where the target tolerance was reached.
    ``big_m`` of None means the (0,1,1) mode, an integer M the large-M
    (0,1,M) mode.
    """

    grid: GridSpec
    components: dict[str, np.ndarray]
    errors: np.ndarray
    converged: np.ndarray
    big_m: int | None = None

    def __post_init__(self):
        shape = self.grid.shape
        for name, arr in self.components.items():
            if arr.shape != shape:
                raise ValueError(f"component {name!r} shape {arr.shape} != grid {shape}")
        if self.errors.shape != shape or self.converged.shape != shape:
            raise ValueError("error/convergence array shape does not match grid")

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))
