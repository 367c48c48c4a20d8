"""Tests for the line-segment kernel, adaptive quadrature, and MC oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavlight import closedform, greens
from cavlight.cli import main
from cavlight.io import fmt
from cavlight.greens import (
    QuadratureSpec,
    SingularKernelError,
    SourceFunction,
    convolve_point,
    kernel,
    mc_oracle_many,
)
from cavlight.fields import (
    _SRC_G,
    G_SOURCES,
    SRC_F1,
    SRC_F2,
    SRC_F3,
    SRC_F3_TILDE,
    SRC_F4,
    SRC_LARGE_M,
    SRC_UNIT,
    metric_011,
)
from cavlight.resonance import epsilon_point

PI = math.pi
CENTER = (PI / 2, PI / 2, PI / 2)

# convolution of the unit source at the cavity center, frozen from a
# tight run (rel_tol 1e-10, depth 24); independently confirmed by the
# seeded Monte-Carlo oracle (1e7 samples): 23.4907 +/- 0.0028
UNIT_CENTER = 23.4904220265

# stops refining at depth 2 with panels left: for f1 at CENTER it reports
# error 1.16e-3 and converged False
DEPTH_EXHAUSTED = QuadratureSpec(rel_tol=1e-8, max_depth=2)

# mc_oracle_many([SRC_UNIT], CENTER, 100_000, seed=42)[0] frozen for determinism
MC_UNIT_1E5 = (23.47503818225731, 0.028070421068552568)

# mc_oracle_many([SRC_F1], (0.3, 2.0, -0.5), 1_040_000, seed=42, point_index=3)[0]
# frozen from the oracle that called each source; the samples span two draws
MC_F1_TWO_DRAWS = (25.13771425260955, 0.014131481926003992)

# mc_oracle_many([SRC_F4, SRC_F2, SRC_LARGE_M], point, 1_040_000, seed=42,
# point_index=3) frozen from the oracle that took cos and sin of 2eta' and
# 2zeta' directly; f4 and f2 read the sin and cos factors of both axes
MC_TRIG_FROZEN = {
    (1.0, 0.8, 2.2): [
        (-1.782570637890964, 0.012958434000532237),
        (-3.000171701852039, 0.03203351443525599),
        (43.7904043642665, 0.03670141313650034),
    ],
    (-0.7, 4.0, 1.3): [
        (-0.04468809987366543, 0.004656798540055352),
        (-0.029229462644321292, 0.013173239125288552),
        (18.309610211704136, 0.012747855774913814),
    ],
}


def test_kernel_closed_value_at_midpoint():
    # midpoint of the segment at unit transverse distance ... rho = pi/2:
    # I = ln((1 + sqrt(2)) / (sqrt(2) - 1)) = ln(3 + 2 sqrt(2))
    val = kernel(PI / 2, PI / 2, 0.0)
    assert val == pytest.approx(math.log(3.0 + 2.0 * math.sqrt(2.0)), abs=1e-12)


def test_kernel_far_field_is_newtonian():
    # far away the segment acts as a point source of strength pi: I ~ pi/r
    assert kernel(PI / 2, 50.0, 0.0) == pytest.approx(PI / 50.0, rel=2e-3)


def test_kernel_mirror_symmetry():
    for eta, zeta in [(0.3, -1.2), (2.0, 0.7), (-0.5, 0.4)]:
        for xi in (0.3, 1.0, 2.5, -0.7):
            assert kernel(xi, eta, zeta) == pytest.approx(
                kernel(PI - xi, eta, zeta), abs=1e-12
            )


@given(
    st.floats(-3.0, 6.0),
    st.floats(0.05, 4.0),
    st.floats(0.05, 4.0),
)
@settings(max_examples=60)
def test_kernel_transverse_symmetries(xi, eta, zeta):
    v = kernel(xi, eta, zeta)
    assert kernel(xi, zeta, eta) == pytest.approx(v, abs=1e-12)
    assert kernel(xi, -eta, zeta) == pytest.approx(v, abs=1e-12)
    assert kernel(xi, eta, -zeta) == pytest.approx(v, abs=1e-12)


def test_kernel_singular_line_raises():
    with pytest.raises(SingularKernelError):
        kernel(0.5, 0.0, 0.0)
    with pytest.raises(SingularKernelError):
        kernel(0.0, 0.0, 0.0)


def test_kernel_axis_outside_segment_is_finite():
    # on the axis but outside the segment the potential has a closed form
    assert kernel(-0.5, 0.0, 0.0) == pytest.approx(
        math.log((PI + 0.5) / 0.5), abs=1e-12
    )
    assert kernel(4.0, 0.0, 0.0) == pytest.approx(
        math.log(4.0 / (4.0 - PI)), abs=1e-12
    )


def test_kernel_vectorized_matches_scalar():
    xi = np.array([0.4, 1.0, 3.5])
    eta = np.array([0.2, -0.3, 1.1])
    zeta = np.array([1.0, 0.5, -0.2])
    vec = kernel(0.7, eta, zeta)
    for i in range(3):
        assert vec[i] == kernel(0.7, float(eta[i]), float(zeta[i]))


# points next to the segment's axis where rho^2 is subnormal or nearly so:
# on the segment, off it, with a ratio of sums that would overflow, and on
# the segment with a rho^2 that rounds to 0 while rho does not
NEAR_AXIS = [(2.0, 2.2e-162, 0.0), (-2.0, 2.2e-162, 0.0), (1.0, 1.4916681462400413e-154, 0.0), (2.0, 1e-170, 0.0)]


def _small_rho(xi, eta, zeta):
    """ln(4 xi (pi - xi)) - 2 ln rho on the segment, ln((pi - xi)/(-xi)) resp.
    ln(xi/(xi - pi)) off it; both exact to O(rho^2)."""
    if 0.0 <= xi <= PI:
        return math.log(4.0 * xi * (PI - xi)) - 2.0 * math.log(math.hypot(eta, zeta))
    return math.log((PI - xi) / -xi if xi < 0.0 else xi / (xi - PI))


@pytest.mark.parametrize("point", NEAR_AXIS, ids=["on-segment", "off-segment", "ratio-overflow", "rho2-underflow"])
def test_kernel_next_to_the_axis(point, capsys):
    want = _small_rho(*point)
    assert kernel(*point) == pytest.approx(want, rel=1e-15, abs=0.0)
    assert closedform.line_kernel(*point) == pytest.approx(want, rel=1e-15, abs=0.0)
    assert main(["kernel", *map(repr, point)]) == 0
    assert capsys.readouterr().out == fmt(want) + "\n"


def test_kernel_is_continuous_across_the_near_axis_branch():
    # rho from 1e-160 to 1e-130 crosses rho^2 = NEAR_AXIS_RHO2 (rho = 1e-150);
    # on both sides the kernel is the small-rho form to rounding
    rhos = np.logspace(-160.0, -130.0, 61)
    for xi in [-2.0, 1e-3, 0.5, 2.0, PI - 1e-3, 4.0]:
        for rho in rhos.tolist():
            want = _small_rho(xi, rho, 0.0)
            assert kernel(xi, 0.0, rho) == pytest.approx(want, rel=1e-15, abs=0.0)
            assert closedform.line_kernel(xi, rho, 0.0) == pytest.approx(want, rel=1e-15, abs=0.0)
    vec = kernel(0.5, rhos, 0.0)
    assert vec.tolist() == [kernel(0.5, rho, 0.0) for rho in rhos.tolist()]


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=0)
    with pytest.raises(ValueError):
        QuadratureSpec(panel_order=1)
    # a tolerance of 1 or more would accept every first estimate
    for rel_tol in (True, math.inf, math.nan, 1.0, 1e300, "1e-6", None):
        with pytest.raises(ValueError, match="tolerance must be a number in"):
            QuadratureSpec(rel_tol=rel_tol)
    for kwargs, message in [
        ({"max_depth": 2.5}, "max depth must be an integer in [1, 52], got 2.5"),
        ({"max_depth": True}, "max depth must be an integer in [1, 52], got True"),
        ({"panel_order": 8.0}, "panel order must be an integer in [2, 24], got 8.0"),
        ({"panel_order": "8"}, "panel order must be an integer in [2, 24], got '8'"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            QuadratureSpec(**kwargs)
    assert QuadratureSpec(max_depth=np.int64(5), panel_order=np.int32(4)).max_depth == 5


def test_quadrature_spec_bounds():
    # the largest order and depth that a test, the bench or the ROADMAP uses pass
    assert QuadratureSpec(max_depth=30, panel_order=14).panel_order == 14
    assert QuadratureSpec(max_depth=greens.MAX_DEPTH, panel_order=greens.MAX_PANEL_ORDER).max_depth == 52
    # gauss_legendre is checked for orders 1-24, and deeper panels than 52 are below an ulp of pi
    for kwargs, message in [
        ({"panel_order": 25}, "panel order must be an integer in [2, 24], got 25"),
        ({"panel_order": 10**6}, "panel order must be an integer in [2, 24], got 1000000"),
        ({"max_depth": 53}, "max depth must be an integer in [1, 52], got 53"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QuadratureSpec(**kwargs)


def test_convolve_point_unit_center():
    r = convolve_point(SRC_UNIT, CENTER)
    assert r.converged
    assert r.value == pytest.approx(UNIT_CENTER, rel=1e-5)
    assert abs(r.value - UNIT_CENTER) <= max(10.0 * r.error, 1e-4)


def test_depth_exhausted_error_covers_the_miss():
    # the panels left at the depth limit report their carried error
    r = convolve_point(SRC_UNIT, CENTER, DEPTH_EXHAUSTED)
    assert not r.converged
    assert abs(r.value - UNIT_CENTER) <= r.error


def test_convolve_point_tolerance_controls_error():
    loose = convolve_point(SRC_F1, CENTER, QuadratureSpec(rel_tol=1e-3))
    tight = convolve_point(SRC_F1, CENTER, QuadratureSpec(rel_tol=1e-8))
    assert loose.converged and tight.converged
    assert tight.error < loose.error
    assert loose.value == pytest.approx(tight.value, rel=1e-3)


def test_converged_means_error_within_tolerance(monkeypatch):
    # a tiny panel cap forces early acceptance, and a depth limit stops
    # refinement; converged must still say exactly whether the reported
    # error meets the tolerance
    monkeypatch.setattr(greens, "_MAX_ACTIVE_PANELS", 4)
    outcomes = set()
    for spec in (QuadratureSpec(rel_tol=1e-4), QuadratureSpec(rel_tol=1e-6), DEPTH_EXHAUSTED):
        for point in (CENTER, (0.5, 0.6, 0.7)):
            r = convolve_point(SRC_F1, point, spec)
            assert r.converged == (r.error <= spec.rel_tol * abs(r.value))
            outcomes.add(r.converged)
    assert outcomes == {True, False}


# interior, face, edge, exterior, xi-exterior over the square, and
# mid-plane points
MIXED = [
    CENTER,
    (PI / 2, PI / 2, 0.0),
    (PI / 2, 0.0, 0.0),
    (PI / 2, -PI, -PI),
    (10.0, PI / 2, PI / 2),
    (1.0, PI / 2, 0.7),
    (0.5, 0.6, 0.7),
]


def _assert_batch_independent(source, spec):
    """Each point gives the same bits alone and inside a mixed batch."""
    forward = greens._convolve_batch((source, np.array(MIXED), spec))
    backward = greens._convolve_batch((source, np.array(MIXED[::-1]), spec))
    for i, point in enumerate(MIXED):
        alone = convolve_point(source, point, spec)
        for batch, j in ((forward, i), (backward, len(MIXED) - 1 - i)):
            assert np.array_equal(batch.value[j], alone.value)
            assert batch.error[j] == alone.error
            assert batch.converged[j] == alone.converged


@pytest.mark.parametrize("source", [_SRC_G, SRC_LARGE_M], ids=["011", "large-M"])
def test_point_result_does_not_depend_on_its_batch(source):
    for spec in (QuadratureSpec(rel_tol=1e-6), DEPTH_EXHAUSTED):
        _assert_batch_independent(source, spec)


@pytest.mark.parametrize("source", [_SRC_G, SRC_LARGE_M], ids=["011", "large-M"])
def test_capped_point_does_not_depend_on_its_batch(monkeypatch, source):
    spec = QuadratureSpec(rel_tol=1e-8)
    free = convolve_point(source, CENTER, spec)
    monkeypatch.setattr(greens, "_MAX_ACTIVE_PANELS", 4)
    assert convolve_point(source, CENTER, spec).error != free.error  # the cap fired
    _assert_batch_independent(source, spec)


def test_convolve_points_matches_convolve_point():
    spec = QuadratureSpec(rel_tol=1e-5)
    r = greens.convolve_points(SRC_UNIT, MIXED, spec)
    assert r.value.shape == r.error.shape == r.converged.shape == (len(MIXED),)
    for i, point in enumerate(MIXED):
        assert r.value[i] == convolve_point(SRC_UNIT, point, spec).value


def test_convolve_point_exterior():
    # outside the cavity no singularity splitting is needed
    r = convolve_point(SRC_UNIT, (10.0, PI / 2, PI / 2))
    assert r.converged
    # frozen from a tight run; decays like the total source over distance
    assert r.value == pytest.approx(3.677416, rel=1e-4)


def test_convolution_rects_tile_the_source_square():
    # the engine gives each panel the share area / pi^2 of its node's
    # tolerance, so every node's initial rectangles must tile [0, pi]^2
    points = [CENTER, (PI / 2, PI / 2, 0.0), (PI / 2, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 1.0, 2.0),
              (-1.0, 1.0, 2.0), (PI / 2, -PI, -PI)]
    points += [tuple(p) for p in np.random.default_rng(17).uniform(0.0, PI, (20, 3)).tolist()]
    for point in points:
        rects = greens._convolution_rects(point).T.tolist()
        for a0, a1, b0, b1 in rects:
            assert 0.0 <= a0 < a1 <= PI and 0.0 <= b0 < b1 <= PI
        for i, (a0, a1, b0, b1) in enumerate(rects):
            for c0, c1, d0, d1 in rects[i + 1 :]:
                assert min(a1, c1) <= max(a0, c0) or min(b1, d1) <= max(b0, d0)
        area = math.fsum((a1 - a0) * (b1 - b0) for a0, a1, b0, b1 in rects)
        assert area == pytest.approx(PI * PI, rel=1e-15)


# ROADMAP item 1's unit-source points: 8 seeded (eta, zeta) pairs at each
# xi next to an end face, and the near-face point of test_resonance's xfail
_RNG_CALIBRATION = np.random.default_rng(3)
CALIBRATION_POINTS = [
    (xi, *_RNG_CALIBRATION.uniform(0.0, PI, 2).tolist())
    for xi in (0.001, 0.01, 0.0385, 0.1, PI - 0.01, PI - 0.001)
    for _ in range(8)
] + [(0.0385, 0.9367069751809931, 2.3302973368569626)]


# the claimed error against the closed form: at the parent of this test,
# 5, 12 and 7 of the 49 points under-claimed at rel_tol 1e-5, 1e-6 and
# 1e-7, by up to 1.93, 17 and 33 times, and none at 1e-8
@pytest.mark.parametrize(
    "rel_tol",
    [
        *(
            pytest.param(tol, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                      reason="the error estimate under-claims near the end faces"))
            for tol in (1e-5, 1e-6, 1e-7)
        ),
        1e-8,
    ],
)
def test_error_covers_the_miss_of_the_unit_source(rel_tol):
    exact = np.array([closedform.box_potential(*p) for p in CALIBRATION_POINTS])
    r = greens.convolve_points(SRC_UNIT, CALIBRATION_POINTS, QuadratureSpec(rel_tol=rel_tol))
    assert np.all(np.abs(r.value - exact) <= r.error)


def test_convolve_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        convolve_point(SRC_UNIT, (math.nan, 1.0, 1.0))


@pytest.mark.parametrize(
    "points, threads, match",
    [
        ([CENTER], -1, "threads"),
        # enough cavity points to start a pool, and one exterior point that never does
        ([CENTER] * 40, 2.5, "threads"),
        ([(5.0, 5.0, 5.0)], 1.5, "threads"),
        ([(5.0, 5.0, 5.0)], True, "threads"),
        ([(5.0, 5.0, 5.0)], "2", "threads"),
        (np.zeros((0, 3)), 1, r"\(N, 3\)"),
        ([(1.0, 1.0)], 1, r"\(N, 3\)"),
    ],
    ids=["negative-threads", "fractional-threads-pooled", "fractional-threads", "bool-threads", "str-threads",
         "no-points", "two-coordinates"],
)
def test_convolve_points_rejects_bad_input(points, threads, match):
    with pytest.raises(ValueError, match=match):
        greens.convolve_points(SRC_UNIT, points, threads=threads)


@pytest.mark.parametrize("coordinate", [math.nan, math.inf, -math.inf, 1e308, -1.0000001e6, None])
def test_point_rule_is_shared(coordinate):
    # both kernels, convolve_points, the oracle and epsilon_point refuse the
    # same points with one message
    point = (1.0, coordinate, 1.0)
    calls = [
        lambda: kernel(*point),
        lambda: closedform.line_kernel(*point),
        lambda: epsilon_point(point),
        lambda: greens.convolve_points(SRC_UNIT, [CENTER, point]),
        lambda: mc_oracle_many([SRC_UNIT], point, 1000),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"\(N, 3\) array of three finite coordinates, each within \+-1e\+06"):
            call()
    edge = (1.0, greens.MAX_COORDINATE, -greens.MAX_COORDINATE)
    assert greens.check_points([edge]).tolist() == [list(edge)]
    assert closedform.check_point(edge) == edge


def test_kernel_refuses_bool_coordinates():
    # stacked with numbers, a bool once became 0 or 1
    for xi in (True, np.bool_(False), np.array([True, False])):
        with pytest.raises(ValueError, match=r"\(N, 3\) array"):
            kernel(xi, 1.0, 1.0)
    assert kernel(np.int64(1), 1, 1) == kernel(1.0, 1.0, 1.0)


def test_point_lists_refuse_bool_coordinates():
    # asarray(..., dtype=float) once took the True as 1.0 and integrated at (1, 5, 5)
    point = (True, 5.0, 5.0)
    calls = [
        lambda: greens.convolve_points(SRC_UNIT, [point]),
        lambda: convolve_point(SRC_UNIT, point),
        lambda: metric_011(point),
        lambda: mc_oracle_many([SRC_UNIT], point, 1000),
        lambda: greens.check_points([(1.0, np.bool_(False), 1.0)]),
        lambda: greens.check_points(np.array([[True, False, True]])),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"\(N, 3\) array"):
            call()
    assert greens.check_points([(np.int64(1), 2, 3.0)]).tolist() == [[1.0, 2.0, 3.0]]
    # a float array, such as a grid's nodes, is taken as it is
    nodes = np.full((4, 3), 1.5)
    assert greens.check_points(nodes) is nodes


def test_mc_oracle_is_deterministic():
    got = mc_oracle_many([SRC_UNIT], CENTER, 100_000, seed=42, point_index=0)[0]
    assert got[0] == pytest.approx(MC_UNIT_1E5[0], rel=1e-13)
    assert got[1] == pytest.approx(MC_UNIT_1E5[1], rel=1e-13)
    # a different point index gives an independent stream
    other = mc_oracle_many([SRC_UNIT], CENTER, 100_000, seed=42, point_index=1)[0]
    assert other[0] != got[0]


def test_mc_stream_advance_matches_a_longer_draw():
    # the oracle's runs jump their generators to their first sample; a jump
    # of k outputs then a draw of n equals the tail of one draw of k + n
    for k in [0, 1, 32_768, 1_000_007]:
        jumped = greens._mc_rng(42, 3)
        jumped.bit_generator.advance(k)
        drawn = greens._mc_rng(42, 3).uniform(0.0, PI, k + 1000)[k:]
        assert jumped.uniform(0.0, PI, 1000).tolist() == drawn.tolist()


@pytest.mark.parametrize("point", [(1.0, 0.8, 2.2), (-0.7, 4.0, 1.3)], ids=["interior", "exterior"])
def test_mc_oracle_is_the_same_bits_for_any_cpu_count(monkeypatch, point):
    sources = list(G_SOURCES) + [SRC_LARGE_M]
    counts = [1000, 32_769, 1_040_000, 2_000_001]
    runs = []
    mc_run = greens._mc_run
    monkeypatch.setattr(greens, "_mc_run", lambda job: runs.append(job) or mc_run(job))
    results = {}
    for cpus in [1, 2, 3, 5]:
        monkeypatch.setattr(greens, "_cpu_count", lambda cpus=cpus: cpus)
        runs.clear()
        results[cpus] = [mc_oracle_many(sources, point, n, seed=42, point_index=7) for n in counts]
        # each draw of at most _MC_CHUNK samples splits into min(cpus, blocks) runs
        draws = [min(greens._MC_CHUNK, n - done) for n in counts for done in range(0, n, greens._MC_CHUNK)]
        assert len(runs) == sum(min(cpus, -(-m // greens._MC_BLOCK)) for m in draws)
    for cpus in [2, 3, 5]:
        assert results[cpus] == results[1]


@pytest.mark.parametrize(
    "sources, point, samples, match",
    [
        ([SRC_UNIT], CENTER, 10, re.escape("samples must be an integer in [1000, inf), got 10")),
        ([SRC_UNIT], CENTER, 1e4, "samples must be an integer"),
        ([SRC_UNIT], CENTER, 1000.5, "samples must be an integer"),
        ([SRC_UNIT], CENTER, True, "samples must be an integer"),
        ([SRC_UNIT], (math.nan, 1.0, 1.0), 100_000, "finite"),
        ([SRC_UNIT], (math.inf, 1.0, 1.0), 100_000, "finite"),
        ([SRC_UNIT, _SRC_G], CENTER, 100_000, "'g'"),
        ([SourceFunction(lambda e, z: e + z, "sum")], CENTER, 100_000, "'sum'"),
        ([], CENTER, 100_000, "sources"),
        ([SRC_UNIT], (1.0, 1.0), 100_000, "point"),
        ([SRC_UNIT], (1.0, 1.0, 1.0, 1.0), 100_000, "point"),
        ([SRC_UNIT], ((1, 2), 3, 4), 100_000, "point"),
        ([SRC_UNIT], (1, "a", 4), 100_000, "point"),
    ],
    ids=[
        "tiny-sample", "float-samples", "fractional-samples", "bool-samples",
        "nan-point", "inf-point", "g-basis-rows", "no-basis-lambda",
        "no-sources", "two-coordinates", "four-coordinates", "ragged-point",
        "non-numeric-point",
    ],
)
def test_mc_oracle_rejects_bad_input(sources, point, samples, match):
    with pytest.raises(ValueError, match=match):
        mc_oracle_many(sources, point, samples)


def test_double_angle_matches_cos_sin():
    # the oracle's double-angle factors from one tangent, over the sample
    # range [0, pi), at its ends, and at the doubles next to pi/2 where
    # tan is largest
    rng = np.random.default_rng(2024)
    half = PI / 2
    special = [0.0, PI / 4, np.nextafter(half, 0.0), half, np.nextafter(half, PI), 3 * PI / 4, np.nextafter(PI, 0.0)]
    x = np.concatenate((rng.uniform(0.0, PI, 100_000), special))
    cos2, sin2 = greens._double_angle(x, np.empty((2, len(x))))
    assert np.all(np.isfinite(cos2)) and np.all(np.isfinite(sin2))
    np.testing.assert_allclose(cos2, np.cos(2.0 * x), rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(sin2, np.sin(2.0 * x), rtol=0.0, atol=1e-15)


# each library source against the paper's formula for it, written out here
# rather than read from modes, whose rows are the sources' bases
PHYSICS = {
    SRC_F1: lambda eta, zeta: 2.0 - np.cos(2.0 * eta) - np.cos(2.0 * zeta),
    SRC_F2: lambda eta, zeta: np.cos(2.0 * eta) + np.cos(2.0 * zeta) - 2.0 * np.cos(2.0 * eta) * np.cos(2.0 * zeta),
    SRC_F3: lambda eta, zeta: 1.0 - 2.0 * np.cos(2.0 * zeta) + np.cos(2.0 * zeta) * np.cos(2.0 * eta),
    SRC_F3_TILDE: lambda eta, zeta: 1.0 - 2.0 * np.cos(2.0 * eta) + np.cos(2.0 * eta) * np.cos(2.0 * zeta),
    SRC_F4: lambda eta, zeta: np.sin(2.0 * eta) * np.sin(2.0 * zeta),
    SRC_UNIT: lambda eta, zeta: np.ones(np.broadcast(eta, zeta).shape),
    SRC_LARGE_M: lambda eta, zeta: 4.0 * np.sin(eta) ** 2 + np.zeros(np.broadcast(eta, zeta).shape),
}


@pytest.mark.parametrize("source", list(PHYSICS), ids=lambda src: src.label)
def test_source_basis_matches_its_function(source):
    rng = np.random.default_rng(7)
    eta, zeta = rng.uniform(0.0, PI, (2, 1000))
    ce, cz = np.cos(2.0 * eta), np.cos(2.0 * zeta)
    terms = np.array([np.ones_like(eta), ce, cz, ce * cz, np.sin(2.0 * eta) * np.sin(2.0 * zeta)])
    expected = np.asarray(source.basis, dtype=float) @ terms
    np.testing.assert_allclose(PHYSICS[source](eta, zeta), expected, rtol=0.0, atol=1e-14)


def test_mc_oracle_matches_per_source_reference():
    # the estimator written out per source, with the paper's formula for
    # each source evaluated on every sample
    sources = list(PHYSICS)
    point = (1.0, 2.5, -0.4)
    rng = greens._mc_rng(42, 5)
    ep = rng.uniform(0.0, PI, 50_000)
    zp = rng.uniform(0.0, PI, 50_000)
    kern = greens._kernel_arrays(point[0], point[1] - ep, point[2] - zp)
    got = mc_oracle_many(sources, point, 50_000, seed=42, point_index=5)
    for src, (mean, stderr) in zip(sources, got):
        v = kern * PHYSICS[src](ep, zp)
        assert mean == pytest.approx(PI * PI * v.mean(), rel=1e-13)
        assert stderr == pytest.approx(PI * PI * math.sqrt(v.var() / len(v)), rel=1e-12)


def test_mc_oracle_reads_only_the_basis():
    def never(eta, zeta):
        raise AssertionError("the oracle called a source function")

    point = (0.3, 2.0, -0.5)
    blind = SourceFunction(never, "f1 by basis", SRC_F1.basis)
    got = mc_oracle_many([blind], point, 1_040_000, seed=42, point_index=3)[0]
    assert got == mc_oracle_many([SRC_F1], point, 1_040_000, seed=42, point_index=3)[0]
    # the sample stream and its pairing across generator draws are unchanged
    assert got[0] == pytest.approx(MC_F1_TWO_DRAWS[0], rel=1e-13)
    assert got[1] == pytest.approx(MC_F1_TWO_DRAWS[1], rel=1e-13)


@pytest.mark.parametrize("point", list(MC_TRIG_FROZEN), ids=["interior", "exterior"])
def test_mc_oracle_trig_factors_frozen(point):
    got = mc_oracle_many([SRC_F4, SRC_F2, SRC_LARGE_M], point, 1_040_000, seed=42, point_index=3)
    for (mean, stderr), (frozen_mean, frozen_stderr) in zip(got, MC_TRIG_FROZEN[point], strict=True):
        assert mean == pytest.approx(frozen_mean, rel=1e-13)
        assert stderr == pytest.approx(frozen_stderr, rel=1e-13)


def test_mc_agrees_with_quadrature():
    for i, point in enumerate([CENTER, (10.0, PI / 2, PI / 2), (0.3, 2.0, -0.5)]):
        quad = convolve_point(SRC_F1, point)
        mean, stderr = mc_oracle_many([SRC_F1], point, 200_000, seed=42, point_index=i)[0]
        assert abs(quad.value - mean) < 4.0 * stderr


def test_source_function_label_and_call():
    src = SourceFunction(lambda e, z: e + z, "sum")
    assert src.label == "sum" and src.basis is None
    assert src.fn(1.0, 2.0) == 3.0


@pytest.mark.parametrize(
    "fn, basis, match",
    [
        (None, (True, 0, 0, 0, 0), "coefficient must be a number in (-inf, inf), got True"),
        (None, ("1", 0, 0, 0, 0), "coefficient must be a number in (-inf, inf), got '1'"),
        (None, (math.nan, 0, 0, 0, 0), "coefficient must be a number in (-inf, inf), got nan"),
        (None, (0, 0, 0, 0, math.inf), "coefficient must be a number in (-inf, inf), got inf"),
        (None, ((1, 0, 0, 0, 0), (0, 1, 0, 0, True)), "coefficient must be a number in (-inf, inf), got True"),
        (None, (1, 0), "needs a function or rows of five reals, got (1, 0)"),
        (None, ((1, 0, 0, 0, 0), (1, 0)), "needs a function or rows of five reals, got ((1, 0, 0, 0, 0), (1, 0))"),
        (None, (), "needs a function or rows of five reals, got ()"),
        (None, [1, 0, 0, 0, 0], "needs a function or rows of five reals, got [1, 0, 0, 0, 0]"),
        (None, None, "needs a function or rows of five reals, got None"),
        ("f1", None, "needs a function or rows of five reals, got None"),
    ],
    ids=[
        "bool", "str", "nan", "inf", "bool-in-second-row", "two-coefficients", "ragged-rows", "empty", "list",
        "neither", "fn-not-callable",
    ],
)
def test_source_function_checks_its_basis(fn, basis, match):
    # a bool or "1" was integrated as 1 and reported converged, a NaN gave
    # an unconverged NaN, (1, 0) failed in numpy's reshape, and no fn and no
    # basis failed only when integrated
    with pytest.raises(ValueError, match="^" + re.escape("source 'x' " + match) + "$"):
        SourceFunction(fn, "x", basis)


def test_an_overflowed_value_is_not_converged():
    # a finite coefficient of 1e308 overflows to value inf, with a finite
    # error that the infinite tolerance passed as converged
    huge = SourceFunction(None, "x", ((1e308, 0, 0, 0, 0), (1, 0, 0, 0, 0)))
    with pytest.warns(RuntimeWarning, match="^(overflow|invalid value) encountered"):
        r = convolve_point(huge, (5.0, 5.0, 5.0))
    assert r.value[0] == math.inf and math.isfinite(r.value[1]) and math.isfinite(r.error)
    assert r.converged is False
