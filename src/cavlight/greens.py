"""Line-integrated Green's-function kernel and 2D convolution quadrature.

The kernel is the Newtonian potential of a unit line segment spanning
xi in [0, pi]: the 1/r Green's function integrated analytically along
the box depth.  Metric components are convolutions of this kernel with
bounded sources over the transverse square [0, pi]^2.

The kernel has an integrable logarithmic singularity on the line
rho = 0, xi in [0, pi].  When the evaluation point projects into the
source square, the domain is split into four rectangles meeting at the
projection, so the singularity sits at panel corners where adaptive
dyadic refinement of tensor Gauss panels handles it.  Many evaluation
points are refined together in batches; each point's result is the
same as if it were refined alone.

A plain Monte-Carlo estimator of the same integral serves as an
independent verification oracle.
"""

from __future__ import annotations

import math
import os
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
    """Bounded source over the transverse square, with a label.

    ``basis`` holds the source's coefficients over the five terms
    (1, cos 2eta, cos 2zeta, cos 2eta cos 2zeta, sin 2eta sin 2zeta):
    one row of five, or one row per component of a vector source.  The
    quadrature and the Monte-Carlo oracle read only ``basis``.

    A source without a basis is integrated pointwise: ``fn`` is called
    with eta of shape (n, 1, P) and zeta of shape (n, P) and returns
    values that broadcast to (n, n, P).  The oracle does not accept it.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    label: str
    basis: tuple | None = None


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


def _kernel_arrays(xi, eta, zeta):
    """Vectorized kernel without singularity checks.

    The arguments broadcast against each other; separable eta and zeta
    offsets of shapes (n, 1, P) and (1, n, P) are squared before they
    are broadcast.
    """
    xi = np.asarray(xi, dtype=float)
    rho2 = np.square(eta, dtype=float) + np.square(zeta, dtype=float)
    u = xi - PI
    num = np.asarray(xi * xi + rho2)
    den = np.asarray(u * u + rho2)
    with np.errstate(divide="ignore", invalid="ignore"):
        _stable_sum(xi, rho2, np.sqrt(num, out=num))
        _stable_sum(u, rho2, np.sqrt(den, out=den))
        out = np.log(np.divide(num, den, out=num), out=num)
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


def _runs(owner):
    """Start of each run of equal ids in a sorted owner array."""
    edge = np.empty(len(owner), dtype=bool)
    edge[0] = True
    np.not_equal(owner[1:], owner[:-1], out=edge[1:])
    return np.flatnonzero(edge)


def _add_by_node(value, error, owner, vals, errs):
    """Add node-sorted panel values and errors to their nodes' totals."""
    starts = _runs(owner)
    ids = owner[starts]
    value[ids] += np.add.reduceat(vals, starts, axis=0)
    error[ids] += np.add.reduceat(errs, starts)


def _cap_panels(value, error, owner, vals, carried):
    """Keep at most _MAX_ACTIVE_PANELS active panels per node.

    A node over the cap accepts its smallest-error panels at their
    current estimate.  Returns the indices of the panels that stay.
    """
    ends = np.cumsum(np.bincount(owner)).tolist()
    keep = []
    for node, (s, e) in enumerate(zip([0] + ends[:-1], ends)):
        if e - s <= _MAX_ACTIVE_PANELS:
            keep.append(np.arange(s, e))
            continue
        order = s + np.argsort(carried[s:e])
        cut = e - s - _MAX_ACTIVE_PANELS
        value[node] += vals[order[:cut]].sum(axis=0)
        error[node] += carried[order[:cut]].sum()
        keep.append(order[cut:])
    return np.concatenate(keep)


def _adaptive(rule, rects, owner, spec: QuadratureSpec) -> QuadResult:
    """Adaptive dyadic refinement of a batch of nodes at once.

    ``rects`` is a (4, P) array of initial rectangles and ``owner`` the
    sorted node id 0..N-1 of each; the result holds arrays with one entry
    per node.  Panels stay sorted by node, and every per-node quantity
    (area, scale, threshold, panel cap, error) is kept per node, so a
    node's result does not depend on the nodes that share its batch.

    ``value`` is (N, components), and all components share one set of
    panels.  A panel is accepted when the largest component discrepancy
    between its one-panel value and the sum of its four children is
    below a share of the node's tolerance, rel_tol times its largest
    component magnitude, proportional to sqrt(panel area).  ``error`` sums the accepted
    discrepancies, so it bounds the error of every component, and
    ``converged`` is exactly error <= rel_tol * max |value|.
    """
    nodes, weights = _gauss_rule(spec.panel_order)
    n_nodes = int(owner[-1]) + 1
    total_area = np.bincount(owner, weights=(rects[1] - rects[0]) * (rects[3] - rects[2]), minlength=n_nodes)
    vals = _panel_values(rule, rects, owner, nodes, weights)
    value = np.zeros((n_nodes, vals.shape[1]))
    error = np.zeros(n_nodes)
    scale = np.zeros(n_nodes)
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
        n_par = len(owner)
        flat = ch.transpose(1, 0, 2).reshape(4, 4 * n_par)
        child_owner = np.concatenate((owner, owner, owner, owner))
        cvals = _panel_values(rule, flat, child_owner, nodes, weights)
        refined = cvals.reshape(4, n_par, -1).sum(axis=0)
        perr = np.abs(refined - vals).max(axis=1)

        starts = _runs(owner)
        live = owner[starts]
        scale[live] = np.abs(value[live] + np.add.reduceat(refined, starts, axis=0)).max(axis=1)
        tol_abs = spec.rel_tol * np.maximum(scale, 1e-300)
        area = (a1 - a0) * (b1 - b0)
        node_area = total_area[owner]
        thresh = 0.25 * tol_abs[owner] * np.sqrt(area / node_area)
        # floating-point floor: refining below roundoff only grows the panel set
        floor = 4.0 * np.finfo(float).eps * (np.abs(refined).max(axis=1) + scale[owner] * area / node_area)
        accept = perr <= np.maximum(thresh, floor)

        if accept.any():
            _add_by_node(value, error, owner[accept], refined[accept], perr[accept])
        kept = np.flatnonzero(~accept)
        if not len(kept):
            break

        # the children of kept panels, grouped by node and, within a node,
        # in the child-major order of a batch of one
        children = (np.arange(4)[:, None] * n_par + kept).ravel()
        children = children[np.argsort(child_owner[children], kind="stable")]
        rects = flat[:, children]
        vals = cvals[children]
        owner = child_owner[children]
        carried = perr[children % n_par] / 4.0

        # keep the active set bounded: accept the smallest-error panels early
        if np.bincount(owner).max() > _MAX_ACTIVE_PANELS:
            stay = _cap_panels(value, error, owner, vals, carried)
            rects, vals, owner, carried = rects[:, stay], vals[stay], owner[stay], carried[stay]
    else:
        # depth exhausted: active panels keep their best values and
        # report their carried error
        _add_by_node(value, error, owner, vals, carried)
    converged = error <= spec.rel_tol * np.abs(value).max(axis=1)
    return QuadResult(value, error, converged)


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


# the five basis terms as (eta factor, zeta factor) pairs; factor f of x
# is _TRIG[f](2x), and factor 0 is the constant 1
_BASIS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 2))
_TRIG = (None, np.cos, np.sin)


def _convolve_batch(job) -> QuadResult:
    """One adaptive pass over a batch of points; job is (source, points, spec)."""
    source, points, spec = job
    rects = [_convolution_rects(p) for p in points.tolist()]
    owner = np.repeat(np.arange(len(rects)), [r.shape[1] for r in rects])
    rows = np.array(source.basis or (), dtype=float).reshape(-1, 5)
    terms = {}  # {zeta factor: [(eta factor, (components, 1, 1) coefficients)]}
    for column, (fe, fz) in zip(rows.T, _BASIS):
        if column.any():
            terms.setdefault(fz, []).append((fe, column[:, None, None]))
    eta_factors = {fe for pairs in terms.values() for fe, _ in pairs}

    def rule(ep, zp, weights, ids):
        xi, eta, zeta = points[ids].T
        kern = _kernel_arrays(xi, eta - ep[:, None], zeta - zp)
        if source.basis is None:  # integrated pointwise
            return np.einsum("ijp,i,j->p", kern * source.fn(ep[:, None], zp), weights, weights)[:, None]
        # per zeta factor, contract the kernel once against the weighted eta
        # factors or their mix, whichever is fewer; operands are contiguous,
        # as stride-0 ones slow einsum down
        w = np.repeat(weights[:, None], ep.shape[1], axis=1)
        eta_f = {fe: w if fe == 0 else w * _TRIG[fe](2.0 * ep) for fe in eta_factors}
        out = np.zeros((len(rows), ep.shape[1]))
        for fz, pairs in terms.items():
            zeta_f = w if fz == 0 else w * _TRIG[fz](2.0 * zp)
            if len(pairs) < len(rows):
                # mix the basis integrals one term at a time, in a fixed order,
                # so a point's bits do not depend on its batch
                factors = np.stack([eta_f[fe] for fe, _ in pairs])
                for (_, coef), integral in zip(pairs, np.einsum("ijp,jp,bip->bp", kern, zeta_f, factors)):
                    out += coef[:, 0] * integral
            else:
                mixed = sum(coef * eta_f[fe] for fe, coef in pairs)
                out += np.einsum("ijp,jp,kip->kp", kern, zeta_f, mixed)
        return out.T

    r = _adaptive(rule, np.concatenate(rects, axis=1), owner, spec)
    # only a source with several basis rows keeps its component axis
    return r if np.ndim(source.basis) == 2 else r._replace(value=r.value[:, 0])


# Batches are formed in point order by predicted cost, in units of one
# point outside the cavity; a point in the closed cavity is singular and
# costs about _SINGULAR_COST of them (serially, 47-79 for the (011)
# sources at rel_tol 1e-6, 108 for large M at 1e-8, on a 2-vCPU VM).
# _BATCH_COST bounds the panels, and so the memory, of one batch: 16
# singular points.  A pool starts only when the predicted work of all
# batches is at least _POOL_COST; on that VM two workers began to beat
# serial work at 1024-2048 exterior or 64 singular (011) points.
_SINGULAR_COST = 64
_BATCH_COST = 1024
_POOL_COST = 2048


def _batch_bounds(cost) -> list[int]:
    bounds = [0]
    total = 0
    for i, c in enumerate(cost.tolist()):
        if total and total + c > _BATCH_COST:
            bounds.append(i)
            total = 0
        total += c
    return bounds + [len(cost)]


def convolve_points(
    source: SourceFunction, points, spec: QuadratureSpec = DEFAULT_SPEC, threads: int = 1
) -> QuadResult:
    """convolve_point at each of the (N, 3) points, as arrays.

    ``value`` is (N,) or (N, components); ``error`` and ``converged``
    are (N,).  Points are integrated in batches formed in point order,
    and a point's result does not depend on the points that share its
    batch, so results are bit-identical for any ``threads``.  threads=0
    means one worker per CPU; a process pool starts only when the
    predicted work pays for it.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or not len(pts):
        raise ValueError("evaluation points must form a non-empty (N, 3) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("evaluation point must be finite")
    inside = np.all((pts >= 0.0) & (pts <= PI), axis=1)
    cost = np.where(inside, _SINGULAR_COST, 1)
    bounds = _batch_bounds(cost)
    jobs = [(source, pts[s:e], spec) for s, e in zip(bounds[:-1], bounds[1:])]
    workers = min((os.cpu_count() or 1) if threads == 0 else threads, len(jobs))
    if workers > 1 and cost.sum() >= _POOL_COST:
        # imported here: it costs every CLI start-up ~20 ms otherwise
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_convolve_batch, jobs))
    else:
        parts = [_convolve_batch(job) for job in jobs]
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
    return np.random.default_rng([int(seed), int(point_index)])


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
    empty and ``point`` is (xi, eta, zeta).  Returns a (mean, standard
    error) pair per source.
    """
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1000:
        raise ValueError("use at least 1000 samples")
    sources = list(sources)
    if not sources:
        raise ValueError("sources must hold at least one source")
    for src in sources:
        if np.shape(src.basis) != (5,):
            raise ValueError(f"source {src.label!r} needs a basis of one row of five, which the Monte-Carlo oracle reads")
    try:
        p = np.asarray(point, dtype=float)
    except (TypeError, ValueError):  # ragged or not numeric
        p = None
    if p is None or p.shape != (3,):
        raise ValueError(f"point must be three coordinates (xi, eta, zeta), got {point!r}")
    xi, eta, zeta = p.tolist()
    if not all(math.isfinite(v) for v in (xi, eta, zeta)):
        raise ValueError("evaluation point must be finite")
    coef = np.array([src.basis for src in sources], dtype=float).T  # (5, sources)
    rng = _mc_rng(seed, point_index)
    basis_sums = np.zeros(5)
    gram = np.zeros((5, 5))
    block = np.empty((5, _MC_BLOCK))
    # cos 2x and sin 2x of one axis at a time; before that, the kernel's
    # eta and zeta offsets
    trig = np.empty((2, _MC_BLOCK))
    done = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        ep_all = rng.uniform(0.0, PI, m)
        zp_all = rng.uniform(0.0, PI, m)
        for s in range(0, m, _MC_BLOCK):
            ep = ep_all[s : s + _MC_BLOCK]
            zp = zp_all[s : s + _MC_BLOCK]
            n = len(ep)
            kb = block[:, :n]
            offsets = np.subtract(eta, ep, out=trig[0, :n]), np.subtract(zeta, zp, out=trig[1, :n])
            kb[0] = _kernel_arrays(xi, *offsets)
            # row c is the kernel times its eta factor, then its zeta factor;
            # factor f >= 1 is cos (1) or sin (2) of the doubled angle
            for axis, x in enumerate((ep, zp)):
                factors = _double_angle(x, trig[:, :n])
                for row, pair in zip(kb[1:], _BASIS[1:]):
                    if pair[axis]:
                        np.multiply(row if axis and pair[0] else kb[0], factors[pair[axis] - 1], out=row)
            basis_sums += kb.sum(axis=1)
            # einsum, not BLAS, so the sums do not depend on BLAS threads
            gram += np.einsum("ik,jk->ij", kb, kb)
        done += m
    sumsq = np.einsum("ij,ik,jk->k", gram, coef, coef)
    sums = basis_sums @ coef
    vol = PI * PI
    mean = vol * sums / samples
    var = np.maximum(sumsq / samples - (sums / samples) ** 2, 0.0)
    stderr = vol * np.sqrt(var / samples)
    return list(zip(mean.tolist(), stderr.tolist()))
