"""Tests for the line-segment kernel, adaptive quadrature, and MC oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavlight import greens
from cavlight.greens import (
    QuadratureSpec,
    SingularKernelError,
    SourceFunction,
    convolve_point,
    kernel,
    mc_oracle_many,
)
from cavlight.fields import SRC_F1, SRC_UNIT

PI = math.pi
CENTER = (PI / 2, PI / 2, PI / 2)

# convolution of the unit source at the cavity center, frozen from a
# tight run (rel_tol 1e-10, depth 24); independently confirmed by the
# seeded Monte-Carlo oracle (1e7 samples): 23.4907 +/- 0.0028
UNIT_CENTER = 23.4904220265

# mc_oracle_many([SRC_UNIT], CENTER, 100_000, seed=42)[0] frozen for determinism
MC_UNIT_1E5 = (23.47503818225731, 0.028070421068552568)


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


def test_mc_oracle_rejects_tiny_sample():
    with pytest.raises(ValueError):
        mc_oracle_many([SRC_UNIT], CENTER, 10)


def test_mc_agrees_with_quadrature():
    for i, point in enumerate([CENTER, (10.0, PI / 2, PI / 2), (0.3, 2.0, -0.5)]):
        quad = convolve_point(SRC_F1, point)
        mean, stderr = mc_oracle_many([SRC_F1], point, 200_000, seed=42, point_index=i)[0]
        assert abs(quad.value - mean) < 4.0 * stderr


def test_source_function_label_and_call():
    src = SourceFunction(lambda e, z: e + z, "sum")
    assert src.label == "sum"
    assert src(1.0, 2.0) == 3.0
