"""Line-integrated Green's-function kernel and 2D convolution quadrature.

The kernel is the Newtonian potential of a unit line segment spanning
xi in [0, pi]: the 1/r Green's function integrated analytically along
the box depth.  Metric components are convolutions of this kernel with
bounded sources over the transverse square [0, pi]^2.

The kernel has an integrable logarithmic singularity on the line
rho = 0, xi in [0, pi].  When the evaluation point lies in the closed
box, the domain is split into four rectangles meeting at its projection,
so the singularity sits at panel corners, and the panels integrate the
kernel against the source less its value there; that value times the
kernel's integral is the box's potential in closed form.  Adaptive dyadic
refinement of tensor Gauss panels handles what is left.  Many evaluation
points are refined together in batches; each point's result is the same
as if it were refined alone.

A plain Monte-Carlo estimator of the same integral serves as an
independent verification oracle.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Callable, NamedTuple

import numpy as np

from .closedform import MAX_COORDINATE, NEAR_AXIS_RHO2, POINT_RULE, SingularKernelError
from .closedform import box_potential, check_point, gauss_legendre, line_kernel
from .physical import check_count, check_instance, check_real, checked_record

PI = math.pi


# a panel at depth 52 is pi*2^-52 wide, 1.6 ulp of pi; one level deeper its
# Gauss nodes round onto one another at coordinates near pi
MAX_DEPTH = 52
# closedform.gauss_legendre is checked against mpmath for orders 1-24
MAX_PANEL_ORDER = 24


@checked_record
class QuadratureSpec(NamedTuple):
    """Accuracy controls for the adaptive panel quadrature: rel_tol in
    (0, 1), kept as a float, and an integer max_depth in [1, MAX_DEPTH]
    and panel_order in [2, MAX_PANEL_ORDER], kept as ints."""

    rel_tol: float = 1e-6
    max_depth: int = 18
    panel_order: int = 8

    def _checked(self):
        return (
            check_real(self.rel_tol, "tolerance", gt=0, lt=1),
            check_count(self.max_depth, "max depth", 1, MAX_DEPTH),
            check_count(self.panel_order, "panel order", 2, MAX_PANEL_ORDER),
        )


DEFAULT_SPEC = QuadratureSpec()

# upper bound on simultaneously refined panels; beyond it the
# smallest-error panels are accepted at their current estimate
_MAX_ACTIVE_PANELS = 4096


@checked_record
class SourceFunction(NamedTuple):
    """Bounded source over the transverse square, with a label.

    ``basis`` holds the source's coefficients over the five terms
    (1, cos 2eta, cos 2zeta, cos 2eta cos 2zeta, sin 2eta sin 2zeta): a
    tuple of five reals, or of such rows, one per component of a vector
    source.  The quadrature and the Monte-Carlo oracle read only ``basis``.

    A source without a basis is integrated pointwise: ``fn`` is called
    with eta of shape (n, 1, P) and zeta of shape (n, P) and returns
    values that broadcast to (n, n, P).  The oracle does not accept it.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    label: str
    basis: tuple | None = None

    def _checked(self):
        if self.basis is not None or not callable(self.fn):
            nested = isinstance(self.basis, tuple) and self.basis and isinstance(self.basis[0], tuple)
            for row in self.basis if nested else (self.basis,):
                if not isinstance(row, tuple) or len(row) != 5:
                    raise ValueError(f"source {self.label!r} needs a function or rows of five reals, got {self.basis!r}")
                for c in row:
                    check_real(c, f"source {self.label!r} coefficient")
        return self


class QuadResult(NamedTuple):
    """One point's result; from convolve_points, one array entry per point."""

    value: float | np.ndarray
    error: float
    converged: bool


def _stable_sum(x, rho2, s):
    """x + s for s = sqrt(x^2 + rho2), written into s.

    Where x < 0 the sum is rearranged as rho2 / (s - x) to avoid
    cancellation.  Only the branch each entry needs is computed unless x
    mixes signs.
    """
    positive = x >= 0.0
    if positive.all():
        np.add(x, s, out=s)
    elif not positive.any():
        np.subtract(s, x, out=s)
        np.divide(rho2, s, out=s)
    else:
        s[...] = np.where(positive, x + s, rho2 / (s - x))
    return s


def _kernel_arrays(xi, eta, zeta, *, out=None):
    """Vectorized kernel without singularity checks.

    The arguments broadcast against each other; separable eta and zeta
    offsets of shapes (n, 1, P) and (1, n, P) are squared before they
    are broadcast.  ``out``, if given, is a float array of the broadcast
    shape that receives the result.  The entries with rho^2 below
    NEAR_AXIS_RHO2 take their values from closedform.line_kernel, so an
    entry exactly on the singular line raises SingularKernelError; that is
    how kernel refuses such points, and no Gauss node lands on one.
    """
    xi = np.asarray(xi, dtype=float)
    rho2 = np.square(eta, dtype=float) + np.square(zeta, dtype=float)
    u = xi - PI
    num = np.asarray(np.add(xi * xi, rho2, out=out))
    den = np.asarray(u * u + rho2)
    # a tiny rho2 can overflow the ratio; those entries are replaced below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _stable_sum(xi, rho2, np.sqrt(num, out=num))
        _stable_sum(u, rho2, np.sqrt(den, out=den))
        result = np.log(np.divide(num, den, out=num), out=num)
    # next to the axis the sums or their ratio leave the normal range
    tiny = rho2 < NEAR_AXIS_RHO2
    if tiny.any():
        tiny = np.broadcast_to(tiny, result.shape)
        coords = [np.broadcast_to(c, result.shape)[tiny].tolist() for c in (xi, eta, zeta)]
        result[tiny] = [line_kernel(*point) for point in zip(*coords)]
    return result


def check_points(points) -> np.ndarray:
    """The points as a float (N, 3) array; ValueError(POINT_RULE) unless there
    is one at least and closedform.check_point takes each.  A float array,
    such as a grid's nodes, holds no bool or str and is checked whole."""
    if isinstance(points, np.ndarray) and points.dtype == float:
        pts = points
    else:
        try:
            pts = np.array([check_point(p) for p in points], dtype=float).reshape(-1, 3)
        except TypeError:  # not iterable
            pts = np.empty(0)
    # NaN fails the <= too
    if pts.shape[1:] != (3,) or not len(pts) or not np.all(np.abs(pts) <= MAX_COORDINATE):
        raise ValueError(POINT_RULE)
    return pts


def kernel(xi: float, eta: float, zeta: float):
    """Kernel I(xi, eta, zeta); raises on the singular line, for a bool or
    bool array coordinate and for points check_points rejects."""
    # the stacking below would take a bool as 0 or 1
    if any(np.asarray(c).dtype == bool for c in (xi, eta, zeta)):
        raise ValueError(POINT_RULE)
    check_points(np.stack(np.broadcast_arrays(xi, eta, zeta), axis=-1).reshape(-1, 3))
    out = _kernel_arrays(xi, eta, zeta)
    return float(out) if np.ndim(out) == 0 else out


@functools.cache
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = gauss_legendre(order)
    return np.array(nodes), np.array(weights)


# integrand points evaluated per call: it bounds the temporaries of a
# batch however many panels it refines, and keeps them in cache
_CHUNK_POINTS = 2**13


def _panel_values(rule, rects, owner, nodes, weights):
    """Tensor Gauss values of a batch of rectangles; rects is (4, P).

    The panel rule gets the separable Gauss abscissae eta (n, P) and
    zeta (n, P), the weights, and the node id of each panel; it returns
    the (P, components) weighted sums over the n x n nodes of each panel.
    """
    step = max(1, _CHUNK_POINTS // len(nodes) ** 2)
    parts = []
    for s in range(0, rects.shape[1], step):
        a0, a1, b0, b1 = rects[:, s : s + step]
        eta = a0 + (a1 - a0) * nodes[:, None]
        zeta = b0 + (b1 - b0) * nodes[:, None]
        vals = rule(eta, zeta, weights, owner[s : s + step])
        parts.append(vals * ((a1 - a0) * (b1 - b0))[:, None])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _adaptive(rule, rects, owner, spec: QuadratureSpec, offset: np.ndarray) -> QuadResult:
    """Adaptive dyadic refinement of a batch of nodes at once.

    ``rects`` is a (4, P) array of initial rectangles and ``owner`` the
    node id 0..N-1 of each; the result holds arrays with one entry per
    node.  Panels are not sorted by node.  Every per-node sum is a
    bincount, which adds a node's panels in panel order, and the children
    of the kept panels stay in child-major order, which within a node is
    the order of a batch of one.  Every per-node quantity (scale,
    threshold, panel cap, error) is kept per node, and each node's
    initial rectangles tile the source square, so a node's result does
    not depend on the nodes that share its batch.

    ``offset`` is (N, components), the part of each node's value that the
    panels do not integrate; ``value`` is the offset plus the panel sums,
    (N, components), and all components share one set of panels.  A panel
    is accepted when the largest component discrepancy between its
    one-panel value and the sum of its four children is below a share of
    the node's tolerance, rel_tol times its largest component magnitude,
    offset included, proportional to sqrt(panel area / pi^2), the panel's
    share of the square.  ``error`` sums the accepted
    discrepancies, the estimate of every component's error, not a bound:
    against frozen references at 69 points near the end faces and inside
    the box, g's miss stays within it from rel_tol 1e-5 to 1e-8, and
    h_tilde's exceeds it at two points next to an end face, 1.97 times at
    1e-7 and 1.12 times at 1e-8, as two strict xfails in the tests mark.
    ``converged`` is exactly error <= rel_tol * max |value| with every
    component finite.
    """
    nodes, weights = _gauss_rule(spec.panel_order)
    n_nodes = len(offset)

    def by_node(ids, x):
        """Per-node sums of the panel values x, (P,) or (P, components)."""
        if x.ndim == 1:
            return np.bincount(ids, weights=x, minlength=n_nodes)
        return np.stack([np.bincount(ids, weights=col, minlength=n_nodes) for col in x.T], axis=1)

    vals = _panel_values(rule, rects, owner, nodes, weights)
    value = offset.copy()
    error = np.zeros(n_nodes)
    for level in range(spec.max_depth):
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
        n_par = len(owner)
        flat = ch.transpose(1, 0, 2).reshape(4, 4 * n_par)
        child_owner = np.concatenate((owner, owner, owner, owner))
        cvals = _panel_values(rule, flat, child_owner, nodes, weights)
        refined = cvals.reshape(4, n_par, -1).sum(axis=0)
        perr = np.abs(refined - vals).max(axis=1)

        scale = np.abs(value + by_node(owner, refined)).max(axis=1)[owner]
        tol_abs = spec.rel_tol * np.maximum(scale, 1e-300)
        share = (a1 - a0) * (b1 - b0) / (PI * PI)
        thresh = 0.25 * tol_abs * np.sqrt(share)
        # floating-point floor: refining below roundoff only grows the panel set
        floor = 4.0 * np.finfo(float).eps * (np.abs(refined).max(axis=1) + scale * share)
        accept = perr <= np.maximum(thresh, floor)

        value += by_node(owner[accept], refined[accept])
        error += by_node(owner[accept], perr[accept])
        kept = np.flatnonzero(~accept)
        if not len(kept):
            break

        # the children of kept panels in child-major order; within a node
        # that is the order of a batch of one
        children = (np.arange(4)[:, None] * n_par + kept).ravel()
        rects = flat[:, children]
        vals = cvals[children]
        owner = child_owner[children]

        # keep the active set bounded: a node over the cap accepts its
        # smallest-error panels early, at their best values and carried
        # errors, and the others keep their order.  On the last level the
        # cap is 0, which accepts every panel still active
        cap = _MAX_ACTIVE_PANELS if level + 1 < spec.max_depth else 0
        count = np.bincount(owner, minlength=n_nodes)
        if count.max() > cap:
            carried = perr[children % n_par] / 4.0
            ranked = np.lexsort((carried, owner))
            rank = np.empty(len(owner), dtype=np.intp)
            rank[ranked] = np.arange(len(owner)) - (np.cumsum(count) - count)[owner[ranked]]
            early = rank < (count - cap)[owner]
            value += by_node(owner[early], vals[early])
            error += by_node(owner[early], carried[early])
            rects, vals, owner = rects[:, ~early], vals[~early], owner[~early]
    converged = np.isfinite(value).all(axis=1) & (error <= spec.rel_tol * np.abs(value).max(axis=1))
    return QuadResult(value, error, converged)


def _in_box(pts: np.ndarray) -> np.ndarray:
    """Whether each of the (N, 3) points lies in the closed box [0, pi]^3,
    where the kernel is singular at its projection."""
    return np.all((pts >= 0.0) & (pts <= PI), axis=1)


def _convolution_rects(point):
    """The source square, split at the projection of an interior point."""
    xi, eta, zeta = point
    inside = 0.0 <= xi <= PI and 0.0 <= eta <= PI and 0.0 <= zeta <= PI
    eta_cuts = [0.0, eta, PI] if inside and 0.0 < eta < PI else [0.0, PI]
    zeta_cuts = [0.0, zeta, PI] if inside and 0.0 < zeta < PI else [0.0, PI]
    rects = [(a0, a1, b0, b1) for a0, a1 in zip(eta_cuts, eta_cuts[1:]) for b0, b1 in zip(zeta_cuts, zeta_cuts[1:])]
    return np.array(rects).T


# the five basis terms as (eta factor, zeta factor) pairs; factor f of x
# is _TRIG[f](2x), and factor 0 is the constant 1
_BASIS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 2))
_TRIG = (None, np.cos, np.sin)


def _source_at(source: SourceFunction, rows: np.ndarray, eta: float, zeta: float) -> list[float]:
    """The source at (eta, zeta), one entry per component.  A basis source
    is summed with math, term by term, so the value does not depend on the
    batch that asks for it."""
    if source.basis is None:
        return [np.asarray(source.fn(np.full((1, 1, 1), eta), np.full((1, 1), zeta)), dtype=float).item()]
    # factor f of x is 1, cos 2x or sin 2x, as in _BASIS
    factors = [(1.0, math.cos(2.0 * x), math.sin(2.0 * x)) for x in (eta, zeta)]
    terms = [factors[0][fe] * factors[1][fz] for fe, fz in _BASIS]
    return [math.fsum(c * t for c, t in zip(row, terms)) for row in rows.tolist()]


def _convolve_batch(job) -> QuadResult:
    """One adaptive pass over a batch of points; job is (source, points, spec).

    At a point in the closed box the panels integrate the source less
    f(eta, zeta), its value at the point's projection, and f(eta, zeta)
    times closedform.box_potential at the point is the node's offset
    (singularity subtraction; Khayat & Wilton, IEEE TAP 53(10), 2005)."""
    source, points, spec = job
    coords = points.tolist()
    rects = [_convolution_rects(p) for p in coords]
    owner = np.repeat(np.arange(len(rects)), [r.shape[1] for r in rects])
    rows = np.array(source.basis or (), dtype=float).reshape(-1, 5)
    at = np.zeros((len(coords), max(len(rows), 1)))  # the source at each point's projection; 0 outside
    offset = np.zeros_like(at)
    for i in np.flatnonzero(_in_box(points)).tolist():
        xi, eta, zeta = coords[i]
        at[i] = _source_at(source, rows, eta, zeta)
        offset[i] = at[i] * box_potential(xi, eta, zeta)
    terms = {}  # {zeta factor: [(eta factor, (components, 1) or per node (components, N) coefficients)]}
    for column, (fe, fz) in zip(rows.T, _BASIS):
        coef = column[:, None]
        if (fe, fz) == (0, 0) and at.any():
            coef = coef - at.T  # each node's -f(eta, zeta)
        if coef.any():
            terms.setdefault(fz, []).append((fe, coef))
    eta_factors = {fe for pairs in terms.values() for fe, _ in pairs}

    def rule(ep, zp, weights, ids):
        xi, eta, zeta = points[ids].T
        kern = _kernel_arrays(xi, eta - ep[:, None], zeta - zp)
        if source.basis is None:  # integrated pointwise
            values = source.fn(ep[:, None], zp) - at[ids, 0]
            return np.einsum("ijp,i,j->p", kern * values, weights, weights)[:, None]
        # per zeta factor, contract the kernel once against each weighted eta
        # factor that pairs with it; operands are contiguous, as stride-0
        # ones slow einsum down
        w = np.repeat(weights[:, None], ep.shape[1], axis=1)
        eta_f = {fe: w if fe == 0 else w * _TRIG[fe](2.0 * ep) for fe in eta_factors}
        out = np.zeros((len(rows), ep.shape[1]))
        for fz, pairs in terms.items():
            zeta_f = w if fz == 0 else w * _TRIG[fz](2.0 * zp)
            factors = np.stack([eta_f[fe] for fe, _ in pairs])
            # add the basis integrals one term at a time, in a fixed order,
            # so a point's bits do not depend on its batch
            for (_, coef), integral in zip(pairs, np.einsum("ijp,jp,bip->bp", kern, zeta_f, factors)):
                out += (coef if coef.shape[1] == 1 else coef[:, ids]) * integral
        return out.T

    r = _adaptive(rule, np.concatenate(rects, axis=1), owner, spec, offset)
    # only a source with several basis rows keeps its component axis
    return r if np.ndim(source.basis) == 2 else r._replace(value=r.value[:, 0])


# Predicted cost, in units of one point outside the cavity; a point in
# the closed cavity is singular and counts as _SINGULAR_COST of them.
# Serially, over the default map's nodes on a 2-vCPU VM, it costs about 14
# for the (011) sources at rel_tol 1e-6 and 26 for large M at 1e-8 (48 and
# 84 without the singular subtraction).  The constant stays 64, the value
# the batch memory bound and the pool gate below were measured with.
# Batches are cuts of the running cost at multiples of _BATCH_COST, which
# bounds the panels, and so the memory, of one batch: 16 singular points.
# A pool starts at three batches, a predicted cost of 2048; on that VM
# two workers began to beat serial work at 1024-2048 exterior or 64
# singular (011) points.
_SINGULAR_COST = 64
_BATCH_COST = 1024


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity set where the OS
    keeps one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_jobs(fn, jobs, workers: int, processes: bool = False) -> list:
    """[fn(job) for job in jobs], in job order: inline when min(workers,
    len(jobs)) < 2, else on a process or thread pool of that size."""
    workers = min(workers, len(jobs))
    if workers < 2:
        return [fn(job) for job in jobs]
    # imported here: it costs every CLI start-up ~20 ms otherwise
    import concurrent.futures as futures
    with (futures.ProcessPoolExecutor if processes else futures.ThreadPoolExecutor)(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def convolve_points(
    source: SourceFunction, points, spec: QuadratureSpec = DEFAULT_SPEC, threads: int = 1
) -> QuadResult:
    """convolve_point at each of the (N, 3) points, as arrays.

    ``value`` is (N,) or (N, components); ``error`` and ``converged``
    are (N,).  Points are integrated in batches, cut from the points in
    order by their running cost, and a point's result does not depend on
    the points that share its batch, so results are bit-identical for any
    ``threads``.  threads=0 means one worker per CPU; a process pool
    starts only at three batches, where the predicted work pays for it.
    """
    check_count(threads, "threads")
    check_instance(spec, QuadratureSpec, "spec")
    pts = check_points(points)
    cost = np.cumsum(np.where(_in_box(pts), _SINGULAR_COST, 1))
    cuts = np.flatnonzero(np.diff(cost // _BATCH_COST)) + 1
    jobs = [(source, batch, spec) for batch in np.split(pts, cuts)]
    workers = (_cpu_count() if threads == 0 else threads) if len(jobs) >= 3 else 1
    parts = _map_jobs(_convolve_batch, jobs, workers, processes=True)
    return QuadResult(*(np.concatenate(arrays) for arrays in zip(*parts)))


def convolve_point(
    source: SourceFunction, point, spec: QuadratureSpec = DEFAULT_SPEC
) -> QuadResult:
    """Integral of I(xi, eta - eta', zeta - zeta') * source over [0, pi]^2.

    A source with several basis rows is integrated in one pass over
    shared panels; ``value`` is then an array with one entry per row,
    and the tolerance applies at the scale of the largest component.
    This is convolve_points for a batch of one.
    """
    r = convolve_points(source, [point], spec)
    value = r.value[0]
    return QuadResult(value if np.ndim(value) else float(value), float(r.error[0]), bool(r.converged[0]))


# samples drawn per call of the generator, which fixes the sample stream
_MC_CHUNK = 1_000_000
# samples per pass over the trig basis; it bounds the oracle's temporaries
_MC_BLOCK = 2**15


def _mc_rng(seed: int, point_index: int) -> np.random.Generator:
    # the derived stream is a pure function of (seed, point index), so
    # serial and parallel sweeps agree sample for sample
    return np.random.default_rng([seed, point_index])


def _double_angle(x, out):
    """cos 2x and sin 2x into out[0] and out[1] from one tangent t = tan x.

    With d = 1 + t^2, cos 2x = 2/d - 1 = (1 - t^2)/d and sin 2x = 2t/d.
    One tan costs a tenth of a cos or sin, and the two rows of ``out``
    are all the memory the step needs.  For x in [0, pi), t and t^2 stay
    finite, even at the doubles next to pi/2.
    """
    cos2, sin2 = out
    np.tan(x, out=sin2)
    np.multiply(sin2, sin2, out=cos2)
    np.add(cos2, 1.0, out=cos2)
    np.add(sin2, sin2, out=sin2)
    np.divide(sin2, cos2, out=sin2)
    np.divide(2.0, cos2, out=cos2)
    np.subtract(cos2, 1.0, out=cos2)
    return out


def _mc_run(job):
    """Row sums and Gram matrices, one per block, of samples start..stop-1
    of a draw of m samples whose first generator output is number first.

    job is (seed, point_index, point, first, m, start, stop).  Sample j of
    the draw takes output first + j for eta' and first + m + j for zeta',
    one output per double, so the run jumps its own two generators there.
    """
    seed, point_index, (xi, eta, zeta), first, m, start, stop = job
    eta_rng = _mc_rng(seed, point_index)
    eta_rng.bit_generator.advance(first + start)
    zeta_rng = _mc_rng(seed, point_index)
    zeta_rng.bit_generator.advance(first + m + start)
    block = np.empty((5, _MC_BLOCK))
    # cos 2x and sin 2x of one axis at a time; before that, the kernel's
    # eta and zeta offsets
    trig = np.empty((2, _MC_BLOCK))
    sums, grams = [], []
    for s in range(start, stop, _MC_BLOCK):
        n = min(_MC_BLOCK, stop - s)
        ep = eta_rng.uniform(0.0, PI, n)
        zp = zeta_rng.uniform(0.0, PI, n)
        kb = block[:, :n]
        offsets = np.subtract(eta, ep, out=trig[0, :n]), np.subtract(zeta, zp, out=trig[1, :n])
        _kernel_arrays(xi, *offsets, out=kb[0])
        # row c is the kernel times its eta factor, then its zeta factor;
        # factor f >= 1 is cos (1) or sin (2) of the doubled angle
        for axis, x in enumerate((ep, zp)):
            factors = _double_angle(x, trig[:, :n])
            for row, pair in zip(kb[1:], _BASIS[1:]):
                if pair[axis]:
                    np.multiply(row if axis and pair[0] else kb[0], factors[pair[axis] - 1], out=row)
        sums.append(kb.sum(axis=1))
        # einsum, not BLAS, so the sums do not depend on BLAS threads
        grams.append(np.einsum("ik,jk->ij", kb, kb))
    return sums, grams


def mc_oracle_many(
    sources,
    point,
    samples: int,
    seed: int = 42,
    point_index: int = 0,
) -> list[tuple[float, float]]:
    """Monte-Carlo estimates of the convolution for several sources.

    All sources share one uniform sample stream over [0, pi]^2.  Each
    block of samples evaluates the kernel once, takes cos and sin of
    2eta' and 2zeta' from one tangent per axis, and accumulates the row
    sums and Gram matrix of kernel times the five basis functions; a
    source's sum of k*s is then sums @ c and its sum of (k*s)^2 is
    c^T G c for its coefficients c.  Sources are read only through
    ``basis``, which must be one row of five; ``sources`` must not be
    empty and ``point`` is (xi, eta, zeta).  ``samples`` is an integer
    from 1000 up, ``seed`` and ``point_index`` integers from 0 up.  Returns
    a (mean, standard error) pair per source.

    The blocks of each draw are split into one contiguous run per CPU,
    run on threads, and added in block order, so the estimates are the
    same bits for any CPU count.
    """
    samples = check_count(samples, "samples", 1000)
    seed = check_count(seed, "seed")
    point_index = check_count(point_index, "point index")
    sources = list(sources)
    if not sources:
        raise ValueError("sources must hold at least one source")
    for src in sources:
        if np.shape(check_instance(src, SourceFunction, "source").basis) != (5,):
            raise ValueError(f"source {src.label!r} needs a basis of one row of five, which the Monte-Carlo oracle reads")
    point = tuple(check_points([point])[0].tolist())
    coef = np.array([src.basis for src in sources], dtype=float).T  # (5, sources)
    cpus = _cpu_count()
    runs = []  # in draw order, and in block order within a draw
    for done in range(0, samples, _MC_CHUNK):
        m = min(_MC_CHUNK, samples - done)
        blocks = -(-m // _MC_BLOCK)
        workers = min(cpus, blocks)
        cuts = [min(m, blocks * k // workers * _MC_BLOCK) for k in range(workers + 1)]
        runs += [(seed, point_index, point, 2 * done, m, a, b) for a, b in zip(cuts, cuts[1:])]
    parts = _map_jobs(_mc_run, runs, cpus)
    basis_sums = np.zeros(5)
    gram = np.zeros((5, 5))
    for run_sums, run_grams in parts:
        for block_sums, block_gram in zip(run_sums, run_grams):
            basis_sums += block_sums
            gram += block_gram
    sumsq = np.einsum("ij,ik,jk->k", gram, coef, coef)
    sums = basis_sums @ coef
    vol = PI * PI
    mean = vol * sums / samples
    var = np.maximum(sumsq / samples - (sums / samples) ** 2, 0.0)
    stderr = vol * np.sqrt(var / samples)
    return list(zip(mean.tolist(), stderr.tolist()))
