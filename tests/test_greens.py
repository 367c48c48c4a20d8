"""Tests for the line-segment kernel, adaptive quadrature, and MC oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavlight import greens, modes
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
    SRC_F1,
    SRC_F2,
    SRC_F3,
    SRC_F3_TILDE,
    SRC_F4,
    SRC_LARGE_M,
    SRC_UNIT,
)

PI = math.pi
CENTER = (PI / 2, PI / 2, PI / 2)

# convolution of the unit source at the cavity center, frozen from a
# tight run (rel_tol 1e-10, depth 24); independently confirmed by the
# seeded Monte-Carlo oracle (1e7 samples): 23.4907 +/- 0.0028
UNIT_CENTER = 23.4904220265

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


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=0)
    with pytest.raises(ValueError):
        QuadratureSpec(panel_order=1)


def test_convolve_point_unit_center():
    r = convolve_point(SRC_UNIT, CENTER)
    assert r.converged
    assert r.value == pytest.approx(UNIT_CENTER, rel=1e-5)
    assert abs(r.value - UNIT_CENTER) <= max(10.0 * r.error, 1e-4)


def test_convolve_point_tolerance_controls_error():
    loose = convolve_point(SRC_F1, CENTER, QuadratureSpec(rel_tol=1e-3))
    tight = convolve_point(SRC_F1, CENTER, QuadratureSpec(rel_tol=1e-8))
    assert loose.converged and tight.converged
    assert tight.error < loose.error
    assert loose.value == pytest.approx(tight.value, rel=1e-3)


def test_converged_means_error_within_tolerance(monkeypatch):
    # a tiny panel cap forces early acceptance; converged must still say
    # exactly whether the reported error meets the tolerance
    monkeypatch.setattr(greens, "_MAX_ACTIVE_PANELS", 4)
    outcomes = set()
    for rel_tol in (1e-4, 1e-6):
        for point in (CENTER, (0.5, 0.6, 0.7)):
            r = convolve_point(SRC_F1, point, QuadratureSpec(rel_tol=rel_tol))
            assert r.converged == (r.error <= rel_tol * abs(r.value))
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
    _assert_batch_independent(source, QuadratureSpec(rel_tol=1e-6))


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


def test_convolve_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        convolve_point(SRC_UNIT, (math.nan, 1.0, 1.0))


def test_mc_oracle_is_deterministic():
    got = mc_oracle_many([SRC_UNIT], CENTER, 100_000, seed=42, point_index=0)[0]
    assert got[0] == pytest.approx(MC_UNIT_1E5[0], rel=1e-13)
    assert got[1] == pytest.approx(MC_UNIT_1E5[1], rel=1e-13)
    # a different point index gives an independent stream
    other = mc_oracle_many([SRC_UNIT], CENTER, 100_000, seed=42, point_index=1)[0]
    assert other[0] != got[0]


@pytest.mark.parametrize(
    "sources, point, samples, match",
    [
        ([SRC_UNIT], CENTER, 10, "1000 samples"),
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


def _large_m_stress(mu):
    return lambda eta, zeta: modes.StressTensor(64).component(mu, mu, eta, zeta)


# each library source against the physics code it encodes
PHYSICS = {
    SRC_F1: [modes.f1],
    SRC_F2: [modes.f2],
    SRC_F3: [modes.f3],
    SRC_F3_TILDE: [modes.f3_tilde],
    SRC_F4: [modes.f4],
    SRC_UNIT: [lambda eta, zeta: np.ones(np.broadcast(eta, zeta).shape)],
    SRC_LARGE_M: [_large_m_stress(0), _large_m_stress(3)],
}


@pytest.mark.parametrize("source", list(PHYSICS), ids=lambda src: src.label)
def test_source_basis_matches_its_function(source):
    rng = np.random.default_rng(7)
    eta, zeta = rng.uniform(0.0, PI, (2, 1000))
    ce, cz = np.cos(2.0 * eta), np.cos(2.0 * zeta)
    terms = np.array([np.ones_like(eta), ce, cz, ce * cz, np.sin(2.0 * eta) * np.sin(2.0 * zeta)])
    expected = np.asarray(source.basis, dtype=float) @ terms
    for physics in PHYSICS[source]:
        np.testing.assert_allclose(physics(eta, zeta), expected, rtol=0.0, atol=1e-14)


def test_mc_oracle_matches_per_source_reference():
    # the estimator written out per source, with the physics code of each
    # source evaluated on every sample
    sources = list(PHYSICS)
    point = (1.0, 2.5, -0.4)
    rng = greens._mc_rng(42, 5)
    ep = rng.uniform(0.0, PI, 50_000)
    zp = rng.uniform(0.0, PI, 50_000)
    kern = greens._kernel_arrays(point[0], point[1] - ep, point[2] - zp)
    got = mc_oracle_many(sources, point, 50_000, seed=42, point_index=5)
    for src, (mean, stderr) in zip(sources, got):
        v = kern * PHYSICS[src][0](ep, zp)
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
