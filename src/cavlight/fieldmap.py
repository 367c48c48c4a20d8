"""Grid specification and named field arrays with per-point error estimates."""

from __future__ import annotations

import types
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from .closedform import MAX_COORDINATE
from .modes import MAX_LARGE_M, MIN_LARGE_M
from .physical import check_count, check_real, checked_record

AxisRange = tuple[float, float, int]


@checked_record
class GridSpec(NamedTuple):
    """Rectilinear evaluation grid in box coordinates (units of pi).

    Each axis is (start, stop, count), kept as (float, float, int).  A
    single-point axis (count 1) pins that coordinate, which is how planar
    slices are expressed.  The ends lie within +-MAX_COORDINATE, as every
    evaluation point does, and the count is an integer of at least 1.
    """

    xi: AxisRange = (-np.pi, 2.0 * np.pi, 48)
    eta: AxisRange = (-np.pi, 2.0 * np.pi, 48)
    zeta: AxisRange = (-np.pi, 2.0 * np.pi, 48)

    def _checked(self):
        axes = []
        for name, (start, stop, count) in zip(self._fields, self):
            count = check_count(count, f"{name} axis count", 1)
            start, stop = (check_real(v, f"{name} axis {end}", ge=-MAX_COORDINATE, le=MAX_COORDINATE)
                           for end, v in (("start", start), ("stop", stop)))
            if count > 1 and stop <= start:
                raise ValueError(f"{name} axis range must be increasing")
            axes.append((start, stop, count))
        return axes

    @property
    def axes(self) -> tuple[AxisRange, AxisRange, AxisRange]:
        return tuple(self)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.xi[2], self.eta[2], self.zeta[2])

    def axis_values(self, i: int) -> np.ndarray:
        start, stop, count = self[i]
        if count == 1:
            return np.array([start])
        return np.linspace(start, stop, count)

    def points(self) -> np.ndarray:
        """All grid nodes as an (N, 3) array, xi-major order."""
        grid = np.stack(np.meshgrid(*map(self.axis_values, range(3)), indexing="ij"), axis=-1)
        return grid.reshape(-1, 3)

    def spacings(self) -> tuple[float, float, float]:
        return tuple((stop - start) / (count - 1) if count > 1 else 0.0 for start, stop, count in self)


@checked_record
class FieldMap(NamedTuple):
    """Named component arrays on a grid, with error estimates.

    Components are dimensionless, in units of the amplitude P, and read-only.
    ``errors`` is the quadrature's estimate of the absolute error of each
    component at a node; ``converged`` flags nodes where the target
    tolerance was reached.  ``big_m`` of None means the (0,1,1) mode, an M
    that modes.check_big_m takes (unwarned here) the large-M (0,1,M) mode.
    Every array has the grid's shape; ``_replace`` checks all of it again.
    """

    grid: GridSpec
    components: Mapping[str, np.ndarray]
    errors: np.ndarray
    converged: np.ndarray
    big_m: int | None = None

    def _checked(self):
        shape = self.grid.shape
        for name, arr in self.components.items():
            if arr.shape != shape:
                raise ValueError(f"component {name!r} shape {arr.shape} != grid {shape}")
        if self.errors.shape != shape or self.converged.shape != shape:
            raise ValueError("error/convergence array shape does not match grid")
        big_m = None if self.big_m is None else check_count(self.big_m, "M", MIN_LARGE_M, MAX_LARGE_M)
        return (self.grid, types.MappingProxyType(dict(self.components)), self.errors, self.converged, big_m)

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))
