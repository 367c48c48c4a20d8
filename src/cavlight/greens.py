"""Line-integrated Green's-function kernel and 2D convolution quadrature.

The kernel is the Newtonian potential of a unit line segment spanning
xi in [0, pi]: the 1/r Green's function integrated analytically along
the box depth.  Metric components are convolutions of this kernel with
bounded sources over the transverse square [0, pi]^2.

The kernel has an integrable logarithmic singularity on the line
rho = 0, xi in [0, pi].  When the evaluation point projects into the
source square, the domain is split into four rectangles meeting at the
projection, so the singularity sits at panel corners where adaptive
dyadic refinement of tensor Gauss panels handles it.

A plain Monte-Carlo estimator of the same integral serves as an
independent verification oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

PI = math.pi


class SingularKernelError(ValueError):
    """Kernel evaluated on its singular line (rho = 0, 0 <= xi <= pi)."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy controls for the adaptive panel quadrature."""

    rel_tol: float = 1e-6
    max_depth: int = 18
    panel_order: int = 8

    def __post_init__(self):
        if not self.rel_tol > 0:  # also rejects NaN
            raise ValueError("tolerance must be positive")
        if self.max_depth < 1:
            raise ValueError("max depth must be at least 1")
        if self.panel_order < 2:
            raise ValueError("panel order must be at least 2")


DEFAULT_SPEC = QuadratureSpec()

# upper bound on simultaneously refined panels; beyond it the
# smallest-error panels are accepted at their current estimate
_MAX_ACTIVE_PANELS = 4096


@dataclass(frozen=True)
class SourceFunction:
    """Bounded scalar source over the transverse square, with a label."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str

    def __call__(self, eta, zeta):
        return self.fn(eta, zeta)


class QuadResult(NamedTuple):
    value: float | np.ndarray
    error: float
    converged: bool


def _kernel_arrays(xi, eta, zeta):
    """Vectorized kernel without singularity checks."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    rho2 = eta * eta + zeta * zeta
    u = xi - PI
    s0 = np.sqrt(xi * xi + rho2)
    s1 = np.sqrt(u * u + rho2)
    # rearranged to avoid cancellation: x + sqrt(x^2 + rho^2) is computed
    # as rho^2 / (sqrt(...) - x) when x < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.where(xi >= 0.0, xi + s0, rho2 / (s0 - xi))
        den = np.where(u >= 0.0, u + s1, rho2 / (s1 - u))
        out = np.log(num / den)
        # on the axis rho = 0 outside the segment both branches vanish;
        # substitute the finite limit ln((pi - xi)/(-xi)) resp. ln(xi/(xi - pi))
        axis = rho2 == 0.0
        if np.any(axis):
            limit = np.where(xi < 0.0, (PI - xi) / (-xi), xi / u)
            out = np.where(axis, np.log(limit), out)
    return out


def kernel(xi: float, eta: float, zeta: float):
    """Kernel I(xi, eta, zeta); raises on the singular line."""
    rho2 = np.asarray(eta) ** 2 + np.asarray(zeta) ** 2
    on_line = (rho2 == 0.0) & (np.asarray(xi) >= 0.0) & (np.asarray(xi) <= PI)
    if np.any(on_line):
        raise SingularKernelError(
            f"kernel is singular at rho=0 with xi={xi} in [0, pi]"
        )
    out = _kernel_arrays(xi, eta, zeta)
    if np.ndim(out) == 0:
        return float(out)
    return out


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _GAUSS_CACHE[order] = (0.5 * (x + 1.0), 0.5 * w)
    return _GAUSS_CACHE[order]


def _panel_values(integrand, rects, nodes, weights):
    """Tensor Gauss values of a batch of rectangles; rects is (4, P).

    The integrand may carry a trailing component axis after the (P, n, n)
    node axes; the result is then (P, components).
    """
    a0, a1, b0, b1 = rects
    wa = (a1 - a0)[:, None, None]
    wb = (b1 - b0)[:, None, None]
    eta = a0[:, None, None] + wa * nodes[None, :, None]
    zeta = b0[:, None, None] + wb * nodes[None, None, :]
    eta, zeta = np.broadcast_arrays(eta, zeta)
    vals = np.einsum("pij...,i,j->p...", integrand(eta, zeta), weights, weights)
    return (vals.T * (a1 - a0) * (b1 - b0)).T


def _component_max(panel_values):
    """Largest component magnitude per panel."""
    if panel_values.ndim == 1:
        return np.abs(panel_values)
    return np.abs(panel_values).max(axis=1)


def _adaptive(integrand, rects, spec: QuadratureSpec) -> QuadResult:
    """Adaptive dyadic refinement over an initial (4, P) array of rectangles.

    All components of a vector integrand share one set of panels.  A
    panel is accepted when the largest component discrepancy between its
    one-panel value and the sum of its four children is below a share of
    the global tolerance, rel_tol times the largest component magnitude,
    proportional to sqrt(panel area).  ``error`` sums the accepted
    discrepancies, so it bounds the error of every component, and
    ``converged`` is exactly error <= rel_tol * max |value|.
    """
    nodes, weights = _gauss_rule(spec.panel_order)
    total_area = float(((rects[1] - rects[0]) * (rects[3] - rects[2])).sum())
    vals = _panel_values(integrand, rects, nodes, weights)
    tail = vals.shape[1:]

    value = 0.0
    err_total = 0.0
    for _ in range(spec.max_depth):
        a0, a1, b0, b1 = rects
        am = 0.5 * (a0 + a1)
        bm = 0.5 * (b0 + b1)
        ch = np.array(
            [
                [a0, am, b0, bm],
                [am, a1, b0, bm],
                [a0, am, bm, b1],
                [am, a1, bm, b1],
            ]
        )  # (4 children, 4 bounds, P)
        n_par = rects.shape[1]
        flat = ch.transpose(1, 0, 2).reshape(4, 4 * n_par)
        cvals = _panel_values(integrand, flat, nodes, weights)
        refined = cvals.reshape(4, n_par, *tail).sum(axis=0)
        perr = _component_max(refined - vals)

        scale = float(abs(value + refined.sum(axis=0)).max())
        tol_abs = spec.rel_tol * max(scale, 1e-300)
        area = (a1 - a0) * (b1 - b0)
        thresh = 0.25 * tol_abs * np.sqrt(area / total_area)
        # floating-point floor: refining below roundoff only grows the panel set
        floor = 4.0 * np.finfo(float).eps * (_component_max(refined) + scale * area / total_area)
        accept = perr <= np.maximum(thresh, floor)

        value = value + refined[accept].sum(axis=0)
        err_total += float(perr[accept].sum())
        keep = ~accept
        if not keep.any():
            break

        rects = flat.reshape(4, 4, n_par)[:, :, keep].reshape(4, -1)
        vals = cvals.reshape(4, n_par, *tail)[:, keep].reshape(-1, *tail)
        carried_err = np.broadcast_to(perr[keep] / 4.0, (4, int(keep.sum()))).ravel()

        # keep the active set bounded: accept the smallest-error panels early
        if len(vals) > _MAX_ACTIVE_PANELS:
            order = np.argsort(carried_err)
            cut = len(vals) - _MAX_ACTIVE_PANELS
            small = order[:cut]
            value = value + vals[small].sum(axis=0)
            err_total += float(carried_err[small].sum())
            keep_idx = order[cut:]
            rects = rects[:, keep_idx]
            vals = vals[keep_idx]
            carried_err = carried_err[keep_idx]
    else:
        # depth exhausted: active panels keep their best values and
        # report their carried error
        value = value + vals.sum(axis=0)
        err_total += float(carried_err.sum())
    converged = err_total <= spec.rel_tol * float(abs(value).max())
    return QuadResult(value if np.ndim(value) else float(value), err_total, converged)


def _convolution_rects(point):
    """The source square, split at the projection of an interior point."""
    xi, eta, zeta = point
    eta_cuts = [0.0, PI]
    zeta_cuts = [0.0, PI]
    inside = 0.0 <= xi <= PI and 0.0 <= eta <= PI and 0.0 <= zeta <= PI
    if inside:
        if 0.0 < eta < PI:
            eta_cuts = [0.0, eta, PI]
        if 0.0 < zeta < PI:
            zeta_cuts = [0.0, zeta, PI]
    rects = []
    for a0, a1 in zip(eta_cuts[:-1], eta_cuts[1:]):
        for b0, b1 in zip(zeta_cuts[:-1], zeta_cuts[1:]):
            rects.append((a0, a1, b0, b1))
    return np.array(rects).T


def convolve_point(
    source: SourceFunction, point, spec: QuadratureSpec = DEFAULT_SPEC
) -> QuadResult:
    """Integral of I(xi, eta - eta', zeta - zeta') * source over [0, pi]^2.

    A source whose values carry a trailing component axis is integrated
    in one pass over shared panels; ``value`` is then an array with one
    entry per component, and the tolerance applies at the scale of the
    largest component.
    """
    xi, eta, zeta = (float(v) for v in point)
    if not all(np.isfinite(v) for v in (xi, eta, zeta)):
        raise ValueError("evaluation point must be finite")

    def integrand(ep, zp):
        kern = _kernel_arrays(xi, eta - ep, zeta - zp)
        return (kern.T * source(ep, zp).T).T

    return _adaptive(integrand, _convolution_rects((xi, eta, zeta)), spec)


_MC_CHUNK = 1_000_000


def _mc_rng(seed: int, point_index: int) -> np.random.Generator:
    # the derived stream is a pure function of (seed, point index), so
    # serial and parallel sweeps agree sample for sample
    return np.random.default_rng([int(seed), int(point_index)])


def mc_oracle_many(
    sources,
    point,
    samples: int,
    seed: int = 42,
    point_index: int = 0,
) -> list[tuple[float, float]]:
    """Monte-Carlo estimates of the convolution for several sources.

    All sources share one uniform sample stream over [0, pi]^2 (the
    kernel, the expensive factor, is evaluated once).  Returns a
    (mean, standard error) pair per source.
    """
    if samples < 1000:
        raise ValueError("use at least 1000 samples")
    xi, eta, zeta = (float(v) for v in point)
    rng = _mc_rng(seed, point_index)
    sums = np.zeros(len(sources))
    sumsq = np.zeros(len(sources))
    done = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        ep = rng.uniform(0.0, PI, m)
        zp = rng.uniform(0.0, PI, m)
        kern = _kernel_arrays(xi, eta - ep, zeta - zp)
        for j, src in enumerate(sources):
            v = kern * src(ep, zp)
            sums[j] += float(v.sum())
            sumsq[j] += float((v * v).sum())
        done += m
    vol = PI * PI
    mean = vol * sums / samples
    var = np.maximum(sumsq / samples - (sums / samples) ** 2, 0.0)
    stderr = vol * np.sqrt(var / samples)
    return list(zip(mean.tolist(), stderr.tolist()))


def mc_oracle(
    source: SourceFunction,
    point,
    samples: int,
    seed: int = 42,
    point_index: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, standard error) for a single source."""
    return mc_oracle_many([source], point, samples, seed, point_index)[0]
