"""Tests for metric perturbation fields and the Poisson residual check."""

import concurrent.futures
import inspect
import math
import os
import re
import warnings

import numpy as np
import pytest

from cavlight import fields, greens, modes
from cavlight.fieldmap import FieldMap, GridSpec
from cavlight.fields import (
    G_SOURCES,
    MAX_LARGE_M,
    MIN_LARGE_M,
    SRC_F1,
    g_integrals,
    h_tilde,
    laplacian_residual,
    lightspeed_field,
    metric_011,
    metric_01M,
    metric_grid,
)
from cavlight.greens import QuadratureSpec, SourceFunction, convolve_point

PI = math.pi
CENTER = (PI / 2, PI / 2, PI / 2)
# on the plane eta = pi/2, where g4 (and h23) vanish by symmetry
MID_PLANE = (1.0, PI / 2, 0.7)

# g-integrals at the cavity center, frozen from a tight quadrature run
# (rel_tol 1e-10, depth 24); each confirmed against the seeded 1e7-sample
# Monte-Carlo oracle within one standard error.
G_CENTER = {
    "g1": 54.5951309243,
    "g2": -11.0846553613,
    "g3": 32.8398931428,
    "g3_tilde": 32.8398931428,
    "g4": 0.0,
}
# convolution of 4 sin^2(eta'): equals g1 at the center by symmetry
H_TILDE_CENTER = 54.5951309243


def test_g_integrals_center_frozen():
    g = g_integrals(CENTER)
    assert g.converged
    assert g.h00 == pytest.approx(G_CENTER["g1"], rel=1e-5)
    assert g.h11 == pytest.approx(G_CENTER["g2"], rel=1e-4)
    assert g.h22 == pytest.approx(G_CENTER["g3"], rel=1e-5)
    assert g.h33 == pytest.approx(G_CENTER["g3_tilde"], rel=1e-5)
    assert g.h23 == pytest.approx(0.0, abs=1e-6)


def test_g_trace_identity():
    # g1 = g2 + g3 + g3_tilde because the stress tensor is trace-free
    for point in [CENTER, (1.0, 0.8, 2.0), (4.5, 1.5, 1.5)]:
        g = g_integrals(point)
        assert g.h00 == pytest.approx(g.h11 + g.h22 + g.h33, abs=max(4e-6 * abs(g.h00), 4 * g.error))
        # the five share every panel's basis integrals, and their rows' trace
        # is exactly zero, so the identity holds to rounding
        assert abs(g.h00 - g.h11 - g.h22 - g.h33) <= 1e-14 * max(map(abs, g.as_tuple()))


def _count_kernel_points(monkeypatch):
    """Count the kernel points evaluated in this process."""
    kernel_arrays = greens._kernel_arrays
    seen = [0]

    def counted(*args):
        out = kernel_arrays(*args)
        seen[0] += out.size
        return out

    monkeypatch.setattr(greens, "_kernel_arrays", counted)
    return seen


def test_g_integrals_one_pass_matches_per_source_reference(monkeypatch):
    # interior, face, edge, exterior and mid-plane points
    points = [CENTER, (PI / 2, PI / 2, 0.0), (PI / 2, 0.0, 0.0), (PI / 2, -PI, -PI), MID_PLANE]
    spec = QuadratureSpec(rel_tol=1e-8)
    seen = _count_kernel_points(monkeypatch)
    for point in points:
        seen[0] = 0
        g = g_integrals(point, spec)
        one_pass = seen[0]
        reference, alone = [], []
        for src in G_SOURCES:
            seen[0] = 0
            reference.append(convolve_point(src, point, spec).value)
            alone.append(seen[0])
        # the five sources share panels that cost no more than the costliest
        # source alone.  Not f1 alone: after singularity subtraction the
        # component that refines most varies, and at (pi/2, pi/2, 0) the
        # shared pass takes 6 784 kernel points and f1 alone 4 736
        assert one_pass <= max(alone)
        scale = max(abs(v) for v in reference)
        assert np.allclose(g.as_tuple(), reference, rtol=0.0, atol=spec.rel_tol * scale)


@pytest.mark.parametrize(
    "point, kernel_points",
    [(CENTER, 1280), (MID_PLANE, 7424), ((10.0, PI / 2, PI / 2), 320)],
    ids=["centre", "mid-plane", "exterior"],
)
def test_g_integrals_kernel_points(monkeypatch, point, kernel_points):
    # a work guard that needs no clock: the default spec's panel set
    seen = _count_kernel_points(monkeypatch)
    g_integrals(point)
    assert seen[0] == kernel_points


@pytest.mark.parametrize("point", [CENTER, MID_PLANE, (10.0, PI / 2, PI / 2)], ids=["centre", "mid-plane", "exterior"])
def test_pointwise_source_matches_its_basis(monkeypatch, point):
    # a source without a basis is integrated pointwise, on the same panels
    seen = _count_kernel_points(monkeypatch)
    pointwise = convolve_point(SourceFunction(modes.f1, "f1"), point)
    kernel_points = seen[0]
    seen[0] = 0
    by_basis = convolve_point(SRC_F1, point)
    assert seen[0] == kernel_points
    assert pointwise.value == pytest.approx(by_basis.value, rel=1e-15)


def test_metric_011_mid_plane_converged():
    # h23 is resolved against the scale of the other components, not
    # refined down to roundoff against its own vanishing value
    spec = QuadratureSpec()
    m = metric_011(MID_PLANE, spec)
    g = g_integrals(MID_PLANE, spec)
    assert m.converged
    assert abs(m.h23) <= spec.rel_tol * max(abs(v) for v in g.as_tuple())


def test_metric_011_center():
    m = metric_011(CENTER)
    assert m.converged
    g = G_CENTER
    assert m.h00 == pytest.approx(0.5 * (g["g1"] + g["g2"] + g["g3"] + g["g3_tilde"]), rel=1e-4)
    assert m.h11 == pytest.approx(0.5 * (g["g1"] + g["g2"] - g["g3"] - g["g3_tilde"]), rel=1e-4)
    assert m.h22 == pytest.approx(0.5 * (g["g1"] - g["g2"] + g["g3"] - g["g3_tilde"]), rel=1e-4)
    assert m.h33 == pytest.approx(m.h22, rel=1e-12)  # eta/zeta symmetry at the center
    assert m.h23 == pytest.approx(0.0, abs=1e-6)
    assert abs(m.trace) < 2e-6 * abs(m.h00) + 4 * m.error


@pytest.mark.parametrize("point", [(1.0, 0.8, 2.0), (PI / 2, 0.0, 1.1), (4.5, 1.5, 1.5)],
                         ids=["interior", "face", "exterior"])
def test_metric_011_is_the_g_integrals(point):
    # each component is the convolution of its own stress row: h00..h23 are
    # g1..g4 with g's error, not halved sums of g with twice the error, and
    # g_integrals returns metric_011's record
    g = g_integrals(point)
    assert type(g) is fields.MetricPerturbation and g == metric_011(point)
    assert g.as_tuple() == (g.h00, g.h11, g.h22, g.h33, g.h23)
    expected = (*g.as_tuple(), g.error, g.converged)
    node = metric_grid(GridSpec(*[(c, c, 1) for c in point]), threads=1)
    h = [node.components[name].item() for name in fields.METRIC_COMPONENTS]
    assert (*h, node.errors.item(), node.converged.item()) == expected


def test_h_tilde_center_equals_g1():
    # 4 sin^2(eta') and f1 differ by cos(2 zeta'), which integrates to the
    # same value at the symmetric center point
    r = h_tilde(CENTER)
    assert r.value == pytest.approx(H_TILDE_CENTER, rel=1e-4)


# an interior node 0.46 from every face: before singularity subtraction, at
# rel_tol 1e-8 the quadrature reported converged with error 2.33e-8, yet
# missed the reference by 9.0e-7 (2.7 x the tolerance).  The reference
# agrees to 3e-14 at rel_tol 1e-12 (depth 24, order 12) and 1e-13 (depth 30,
# order 14).
def test_h_tilde_error_covers_the_miss_at_an_interior_node():
    point = (0.49606394622302313, 0.5355417326693342, 0.46297436514476703)
    r = h_tilde(point, QuadratureSpec(rel_tol=1e-8))
    assert abs(r.value - 33.75154091841928) <= r.error


def test_metric_01M_structure():
    m = metric_01M(CENTER, 100)
    r = h_tilde(CENTER)
    assert m.h00 == pytest.approx(100 * r.value, rel=1e-12)
    assert m.h33 == m.h00
    assert m.h11 == 0.0 and m.h22 == 0.0 and m.h23 == 0.0
    with pytest.raises(ValueError):
        metric_01M(CENTER, MIN_LARGE_M - 1)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda m: metric_01M(CENTER, m),
        lambda m: metric_grid(GridSpec((1, 1, 1), (1.5, 1.5, 1), (1.5, 1.5, 1)), big_m=m, threads=1),
    ],
    ids=["metric_01M", "metric_grid"],
)
# above MAX_LARGE_M the map would hold inf and still claim convergence
@pytest.mark.parametrize(
    "big_m", [MIN_LARGE_M - 1, MAX_LARGE_M + 1, 10**307, math.nan], ids=["below", "above", "1e307", "nan"]
)
def test_large_m_outside_range_raises(evaluate, big_m):
    with pytest.raises(ValueError, match=re.escape(f"M must be an integer in [8, 1e+306], got {big_m!r}")):
        evaluate(big_m)


@pytest.mark.parametrize(
    "axis, match",
    [
        ((1.0, 2.0, 0), "count must be an integer in [1, inf), got 0"),
        ((1.0, math.inf, 3), "stop must be a number in [-1e+06, 1e+06], got inf"),
        ((2.0, 1.0, 3), "range must be increasing"),
        # both ends are finite, but linspace would overflow on the span; the
        # ends of every axis keep to the point rule's +-1e6
        ((-1e308, 1e308, 3), "start must be a number in [-1e+06, 1e+06], got -1e+308"),
        # a bool count once gave the shape (True, 1, 1), and linspace failed on a float one
        ((1.0, 2.0, True), "count must be an integer in [1, inf), got True"),
        ((1.0, 2.0, 2.5), "count must be an integer in [1, inf), got 2.5"),
    ],
    ids=["empty", "infinite", "decreasing", "span", "bool-count", "float-count"],
)
def test_grid_spec_rejects_bad_axis(axis, match):
    with pytest.raises(ValueError, match=re.escape(f"xi axis {match}")):
        metric_grid(GridSpec(axis, (1, 1, 1), (1, 1, 1)), threads=1)


def test_grid_spec_takes_numpy_integer_counts():
    assert GridSpec(xi=(1.0, 2.0, np.int64(3))).shape == (3, 48, 48)


@pytest.mark.parametrize("threads", [2.5, True, "2"])
def test_metric_grid_refuses_a_worker_count_that_is_not_an_integer(threads):
    # 40 cavity nodes predict enough work for a pool, which once raised a
    # TypeError for 2.5, and ran True as one worker
    grid = GridSpec((0.5, 2.5, 2), (0.5, 2.5, 4), (0.5, 2.5, 5))
    with pytest.raises(ValueError, match=re.escape(f"threads must be an integer in [0, inf), got {threads!r}")):
        metric_grid(grid, threads=threads)


def test_metric_01M_linear_in_m():
    a = metric_01M(CENTER, 64)
    b = metric_01M(CENTER, 128)
    assert b.h00 == pytest.approx(2.0 * a.h00, rel=1e-12)


def test_delta_c_01M_gsum_alternative():
    # the g-sum route -M*(g1+g2+g3+g3_tilde)/4 integrates a different
    # reduced source but gives the same value at the symmetric center
    g = g_integrals(CENTER)
    val = -100 * (g.h00 + g.h11 + g.h22 + g.h33) / 4.0
    m = metric_01M(CENTER, 100)
    assert val < 0.0
    assert val == pytest.approx(-0.5 * m.h00, rel=1e-4)


def test_lightspeed_field_formulas():
    m = metric_011(CENTER)
    dcx, dcy, dcz = lightspeed_field(m)
    assert dcx == pytest.approx(-0.5 * (m.h00 + m.h11), rel=1e-15)
    assert dcy == pytest.approx(-0.5 * (m.h00 + m.h22), rel=1e-15)
    assert dcz == pytest.approx(-0.5 * (m.h00 + m.h33), rel=1e-15)
    # interior light slows down in every direction
    assert dcx < 0 and dcy < 0 and dcz < 0


def test_metric_grid_components_and_dc():
    grid = GridSpec(xi=(1.0, 2.0, 2), eta=(1.0, 2.0, 2), zeta=(1.5, 1.5, 1))
    field = metric_grid(grid, QuadratureSpec(rel_tol=1e-4), threads=1)
    for name in ("h00", "h11", "h22", "h33", "h23", "dcx", "dcy", "dcz"):
        assert name in field.components
    h00, h11 = field.components["h00"], field.components["h11"]
    assert np.allclose(field.components["dcx"], -0.5 * (h00 + h11), atol=0)
    assert field.all_converged


def test_metric_grid_01M_dcz_is_twice_dcx():
    grid = GridSpec(xi=(1.2, 1.8, 2), eta=(1.2, 1.8, 2), zeta=(1.5, 1.5, 1))
    field = metric_grid(grid, QuadratureSpec(rel_tol=1e-4), big_m=64, threads=1)
    # h11 = h22 = 0 and h33 = h00, so dcz = -h00 = 2 dcx exactly
    assert np.array_equal(field.components["dcz"], 2.0 * field.components["dcx"])


def _default_range(count):
    """The CLI's default grid, linspace(-pi, 2pi, count) on every axis."""
    return GridSpec(*[(-PI, 2 * PI, count)] * 3)


def test_metric_grid_thread_invariance(monkeypatch):
    spec = QuadratureSpec(rel_tol=1e-4)
    unfolded = GridSpec(xi=(0.8, 2.2, 3), eta=(1.0, 2.0, 2), zeta=(1.3, 1.7, 2))
    # small batches, three or more per map, so threads=3 really uses a pool
    monkeypatch.setattr(greens, "_BATCH_COST", 16)
    pools = _count_pools(monkeypatch)
    for grid in [unfolded, _default_range(6)]:
        a = metric_grid(grid, spec, threads=1)
        b = metric_grid(grid, spec, threads=3)
        for name in a.components:
            assert np.array_equal(a.components[name], b.components[name])
        assert np.array_equal(a.errors, b.errors) and np.array_equal(a.converged, b.converged)
    assert pools == [3, 3]


def _count_pools(monkeypatch):
    """Record the worker count of every process pool a map starts."""
    real = concurrent.futures.ProcessPoolExecutor
    pools = []

    class Counted(real):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return pools


def test_metric_grid_starts_a_pool_only_when_the_work_pays(monkeypatch):
    pools = _count_pools(monkeypatch)
    # the default-range 10^3 map: 75 distinct nodes, six of them in the cavity
    metric_grid(_default_range(10), QuadratureSpec(rel_tol=1e-6), threads=2)
    assert pools == []
    # 64 singular nodes: enough predicted work for two workers
    grid = GridSpec(*[(0.5, 0.8, 4)] * 3)
    spec = QuadratureSpec(rel_tol=1e-4)
    pooled = metric_grid(grid, spec, big_m=1000, threads=2)
    assert pools == [2]
    serial = metric_grid(grid, spec, big_m=1000, threads=1)
    assert pools == [2]
    for name in pooled.components:
        assert np.array_equal(pooled.components[name], serial.components[name])


@pytest.mark.parametrize(
    "inside, count",
    [(True, 31), (True, 32), (False, 2047), (False, 2048)],
    ids=["31-cavity", "32-cavity", "2047-exterior", "2048-exterior"],
)
def test_pool_starts_at_a_predicted_cost_of_2048(monkeypatch, inside, count):
    # a cavity point costs 64 and an exterior one 1, so the pool starts at
    # 32 cavity or 2048 exterior points, and not one point earlier
    box = (0.2, PI - 0.2) if inside else (PI + 1.0, PI + 3.0)
    points = np.random.default_rng(count).uniform(*box, (count, 3))
    spec = QuadratureSpec(rel_tol=1e-3)
    pools = _count_pools(monkeypatch)
    pooled = greens.convolve_points(fields.SRC_UNIT, points, spec, threads=2)
    assert pools == ([2] if count in (32, 2048) else [])
    serial = greens.convolve_points(fields.SRC_UNIT, points, spec, threads=1)
    for a, b in zip(pooled, serial):
        assert np.array_equal(a, b)


def test_threads_0_counts_the_cpus_this_process_may_use(monkeypatch):
    # as under taskset: with one usable CPU of several, no pool starts
    pools = _count_pools(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert greens._cpu_count() == 1
    metric_grid(GridSpec(*[(0.5, 0.8, 4)] * 3), QuadratureSpec(rel_tol=1e-4), big_m=1000, threads=0)
    assert pools == []


def _count_nodes(monkeypatch):
    """Count the nodes metric_grid hands to the quadrature."""
    original = fields.convolve_points
    nodes = [0]

    def counted(source, points, *args):
        nodes[0] += len(points)
        return original(source, points, *args)

    monkeypatch.setattr(fields, "convolve_points", counted)
    return nodes


@pytest.mark.parametrize(
    "grid, big_m",
    [
        (_default_range(4), None),  # even counts
        (GridSpec(*[(PI / 2 - 2.3, PI / 2 + 2.3, 5)] * 3), None),  # odd counts
        (GridSpec(xi=(PI / 2, PI / 2, 1), eta=(-PI, 2 * PI, 6), zeta=(-PI, 2 * PI, 6)), None),
        # eta and zeta counts differ, so there is no swap
        (GridSpec(xi=(-PI, 2 * PI, 4), eta=(-PI, 2 * PI, 5), zeta=(-PI, 2 * PI, 3)), None),
        (_default_range(4), 64),
    ],
)
def test_metric_grid_folded_matches_per_node(grid, big_m):
    spec = QuadratureSpec(rel_tol=1e-4)
    field = metric_grid(grid, spec, big_m=big_m, threads=1)
    errors = field.errors.reshape(-1)
    for n, point in enumerate(grid.points()):
        m = metric_011(point, spec) if big_m is None else metric_01M(point, big_m, spec)
        for name in ("h00", "h11", "h22", "h33", "h23"):
            a, b = field.components[name].reshape(-1)[n], getattr(m, name)
            # criterion 5's agreement test
            assert abs(a - b) <= 4.0 * spec.rel_tol * max(abs(a), 1.0) + 2.0 * (errors[n] + m.error)


def test_metric_grid_h23_changes_sign_across_eta_mid_plane(monkeypatch):
    spec = QuadratureSpec(rel_tol=1e-4)
    below = metric_011((1.0, 0.7, 0.4), spec)
    above = metric_011((1.0, PI - 0.7, 0.4), spec)
    assert below.h23 * above.h23 < 0.0
    assert abs(below.h23) > 100 * below.error
    nodes = _count_nodes(monkeypatch)
    grid = GridSpec(xi=(1.0, 1.0, 1), eta=(0.7, PI - 0.7, 2), zeta=(0.4, 0.4, 1))
    field = metric_grid(grid, spec, threads=1)
    assert nodes[0] == 1
    h23 = field.components["h23"][0, :, 0]
    assert h23[0] == below.h23 and h23[1] == -below.h23


@pytest.mark.parametrize(
    "grid, big_m, evaluated",
    [
        # linspace(-pi, 2pi, 10) on every axis: 5 x (5*6/2) representatives
        (_default_range(10), None, 75),
        # no axis symmetric about pi/2 and eta != zeta: every node
        (GridSpec(xi=(0.8, 2.2, 3), eta=(1.0, 2.0, 2), zeta=(1.3, 1.7, 2)), None, 12),
        # large-M folds the mirrors only, and this interior grid has none
        (GridSpec(*[(0.5, 0.68, 3)] * 3), 1000, 27),
        (_default_range(10), 1000, 125),
    ],
)
def test_metric_grid_evaluates_distinct_nodes_only(monkeypatch, grid, big_m, evaluated):
    nodes = _count_nodes(monkeypatch)
    metric_grid(grid, QuadratureSpec(rel_tol=1e-4), big_m=big_m, threads=1)
    assert nodes[0] == evaluated


def _interior_field(delta, count=5, big_m=None):
    c = 1.6
    half = (count - 1) / 2 * delta
    grid = GridSpec(
        xi=(c - half, c + half, count),
        eta=(c - half, c + half, count),
        zeta=(c - half, c + half, count),
    )
    return metric_grid(grid, QuadratureSpec(rel_tol=1e-6), big_m=big_m, threads=0)


def test_laplacian_residual_validation():
    # too coarse
    coarse = GridSpec(xi=(0.5, 2.5, 3), eta=(0.5, 2.5, 3), zeta=(0.5, 2.5, 3))
    cf = metric_grid(coarse, QuadratureSpec(rel_tol=1e-3), threads=1)
    with pytest.raises(ValueError):
        laplacian_residual(cf)


def _zero_field(grid):
    shape = grid.shape
    return FieldMap(grid, {"h00": np.zeros(shape)}, np.zeros(shape), np.ones(shape, dtype=bool))


@pytest.mark.parametrize(
    "grid, match",
    [
        (GridSpec(xi=(1.0, 1.0, 1), eta=(1.0, 1.2, 3), zeta=(1.0, 1.2, 3)), "needs a 3D grid"),
        (GridSpec(xi=(1.0, 1.2, 3), eta=(1.0, 1.2, 3), zeta=(1.0, 1.3, 3)), "needs an isotropic grid"),
        # fine enough, but on the xi = 0 face
        (GridSpec(*[(0.0, 0.2, 5)] * 3), "strictly inside"),
    ],
    ids=["not-3d", "anisotropic", "on-face"],
)
def test_laplacian_residual_refuses_grid(grid, match):
    with pytest.raises(ValueError, match=match):
        laplacian_residual(_zero_field(grid))


def test_field_map_arrays_must_match_grid():
    grid = GridSpec(*[(1.0, 1.2, 3)] * 3)
    field = _zero_field(grid)
    with pytest.raises(ValueError, match="component 'h00' shape"):
        FieldMap(grid, {"h00": np.zeros((3, 3))}, field.errors, field.converged)
    with pytest.raises(ValueError, match="error/convergence array shape"):
        FieldMap(grid, field.components, field.errors, np.ones(2, dtype=bool))


def test_field_map_checks_every_way_it_is_built():
    # a map was a mutable dataclass: errors of 2 entries on a 27-node grid
    # passed, and its CSV had 2 data rows
    field = _zero_field(GridSpec(*[(1.0, 1.2, 3)] * 3))
    short = [*field[:2], np.zeros(2), *field[3:]]
    for build in (lambda: field._replace(errors=np.zeros(2)), lambda: FieldMap._make(short), lambda: FieldMap(*short)):
        with pytest.raises(ValueError, match="^error/convergence array shape does not match grid$"):
            build()
    # the map owns the large-M rule for its M, without the warning
    for big_m in (7, 8.5, True, MAX_LARGE_M + 1):
        bad = [*field[:4], big_m]
        for build in (lambda: field._replace(big_m=big_m), lambda: FieldMap._make(bad), lambda: FieldMap(*bad)):
            with pytest.raises(ValueError, match=f"^{re.escape(f'M must be an integer in [8, 1e+306], got {big_m!r}')}$"):
                build()
    with pytest.raises(AttributeError):
        field.errors = np.zeros(2)
    # nor can a component be replaced: a 2-entry h00 passed, and the CSV had
    # 2 data rows.  The map holds a read-only copy of the mapping it is given
    components = dict(field.components)
    field = field._replace(components=components)
    with pytest.raises(TypeError):
        field.components["h00"] = np.zeros(2)
    components["h00"] = np.zeros(2)
    assert field.components["h00"].shape == (3, 3, 3)
    assert list(inspect.signature(FieldMap).parameters) == list(FieldMap._fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert field._replace(big_m=16).big_m == 16
        assert type(field._replace(big_m=np.int64(16)).big_m) is int


def test_laplacian_residual_small_on_interior_block():
    stats = laplacian_residual(_interior_field(PI / 64))
    assert stats.max_relative < 0.02


def test_laplacian_residual_checks_the_mode_the_map_carries():
    field = _interior_field(PI / 64, big_m=1000)
    assert field.big_m == 1000
    assert laplacian_residual(field).max_relative < 0.02
    # against the (011) source the same large-M values are far off
    assert laplacian_residual(field._replace(big_m=None)).max_relative > 0.5


def test_laplacian_residual_warns_once_and_keeps_the_m_rule():
    # the residual of an M = 16 map once warned a second time, through the stress tensor
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        field = _interior_field(PI / 64, count=3, big_m=16)
        laplacian_residual(field)
    assert [str(w.message) for w in caught] == ["large-M form used with M=16; dropped corrections are of order 1/M"]
    for big_m in (7, 8.5, True, MAX_LARGE_M + 1):
        with pytest.raises(ValueError, match=re.escape(f"M must be an integer in [8, 1e+306], got {big_m!r}")):
            laplacian_residual(field._replace(big_m=big_m))


def test_laplacian_residual_outside_interior_rejected():
    grid = GridSpec(xi=(-0.1, 0.3, 5), eta=(1.0, 1.4, 5), zeta=(1.0, 1.4, 5))
    field = metric_grid(grid, QuadratureSpec(rel_tol=1e-3), threads=1)
    with pytest.raises(ValueError):
        laplacian_residual(field)
