"""Tests for the global cavity resonance shift."""

import math

import numpy as np
import pytest

from cavlight import greens
from cavlight.greens import QuadratureSpec, convolve_points
from cavlight.closedform import box_potential
from cavlight.fields import SRC_UNIT
from cavlight.physical import ExperimentConfig, LengthConvention, ModeIndices, derive_params
from cavlight.resonance import frequency_shift, line_average_epsilon

PI = math.pi
CENTER = (PI / 2, PI / 2, PI / 2)

# frozen line averages of epsilon; epsilon itself is exact (closed form)
LINE_AVG_CENTER = 43.282995541762325
LINE_AVG_CROSS = 37.15540523924205

CONFIG = ExperimentConfig(cavity_length=1000.0, wavelength=500e-9, finesse=1e4)


def _reference_points():
    # seeded points around and inside the box, points near the end faces,
    # one far away, corners, edges and faces of the box itself, and points
    # on the line of an edge, where ln(c + r) rounds to ln 0 unless c + r
    # is rewritten
    rng = np.random.default_rng(45)
    return np.concatenate(
        (
            rng.uniform(-PI, 2 * PI, (20, 3)),
            rng.uniform(0.0, PI, (20, 3)),
            [(xi, 0.3, 2.9) for xi in (0.001, 0.01, PI - 0.01)],
            [(10.0, PI / 2, PI / 2), CENTER, (30.0, PI / 2, PI / 2)],
            [(0.0, 0.0, 0.0), (PI, 0.0, PI / 2), (-1.0, 0.0, 0.0), (PI / 2, PI / 2, 0.0)],
            [(1e-9, 1e-9, PI + 1.0), (PI + 1.0, 1e-9, 1e-9)],
        )
    )


REFERENCE_POINTS = _reference_points()


def test_unit_convolution_matches_tight_quadrature():
    exact = [box_potential(*p) for p in REFERENCE_POINTS]
    tight = QuadratureSpec(rel_tol=1e-11, panel_order=12, max_depth=24)
    quad = convolve_points(SRC_UNIT, REFERENCE_POINTS, tight)
    assert np.all(quad.converged)
    np.testing.assert_allclose(exact, quad.value, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("rel_tol", [1e-4, 1e-6, 1e-8])
def test_quadrature_reaches_its_tolerance_against_closed_form(rel_tol):
    # the tolerance holds; the claimed error itself under-claims near the
    # end faces, so it is not compared here
    exact = [box_potential(*p) for p in REFERENCE_POINTS]
    quad = convolve_points(SRC_UNIT, REFERENCE_POINTS, QuadratureSpec(rel_tol=rel_tol))
    assert np.all(np.abs(quad.value - exact) <= rel_tol * np.abs(exact))


# near the end face xi = 0 the kernel has a second length scale, which
# parent and child panels missed alike: before singularity subtraction the
# quadrature reported converged, with error 6.55e-8, yet missed
# rel_tol * |exact| by 1.31 x.  The unit source is now exact in the box
def test_quadrature_reaches_rel_tol_1e7_near_an_end_face():
    point = (0.0385, 0.9367069751809931, 2.3302973368569626)
    exact = box_potential(*point)
    r = greens.convolve_point(SRC_UNIT, point, QuadratureSpec(rel_tol=1e-7))
    assert abs(r.value - exact) <= 1e-7 * abs(exact)


def test_box_potential_far_field():
    # far away the potential tends to the box's volume over the distance
    far = (PI / 2 + 99.0, PI / 2, PI / 2)
    assert box_potential(*far) * 99.0 / PI**3 == pytest.approx(1.0, rel=1e-6)


def test_box_potential_next_to_an_edge():
    # one corner's ln argument (a^2+b^2)/(r-c) rounds to 0 here, and its term is below 1e-320
    assert box_potential(2.3e-162, 2.3e-162, 3.0) == pytest.approx(box_potential(0.0, 0.0, 3.0), rel=1e-15)


def test_line_average_center_frozen():
    assert line_average_epsilon() == pytest.approx(LINE_AVG_CENTER, rel=1e-12)


def test_line_average_cross_section_frozen():
    avg = line_average_epsilon(transverse="average")
    assert avg == pytest.approx(LINE_AVG_CROSS, rel=1e-12)
    # averaging over the cross-section dilutes the on-axis maximum
    assert avg < line_average_epsilon()


def test_line_average_never_enters_quadrature(monkeypatch):
    # so it cannot start a process pool either
    def no_quadrature(*args, **kwargs):
        raise AssertionError("the line average entered the adaptive quadrature")

    monkeypatch.setattr(greens, "_adaptive", no_quadrature)
    line_average_epsilon.cache_clear()
    assert frequency_shift(CONFIG, 1e20) > 0.0
    assert line_average_epsilon(transverse="average") > 0.0


def test_line_average_rejects_unknown_option():
    with pytest.raises(ValueError):
        line_average_epsilon(transverse="corner")


def test_frequency_shift_sign_and_conventions():
    shift = frequency_shift(CONFIG, 1e20)
    assert shift > 0.0
    assert frequency_shift(CONFIG, 1e20, convention=LengthConvention.RIGID_RODS) == 0.0
    assert frequency_shift(CONFIG, 0.0) == 0.0
    with pytest.raises(ValueError):
        frequency_shift(CONFIG, -1.0)


@pytest.mark.parametrize(
    "config, n, match",
    [
        (CONFIG, math.nan, "photon number"),
        (CONFIG, -1.0, "photon number"),
        (CONFIG, math.inf, "photon number"),
        (CONFIG, True, "photon number"),
        # a sub-Planck cavity: n*kappa*M stays finite, delta_omega/omega does not
        (ExperimentConfig(cavity_length=1e-100, wavelength=1e-106), 1e171, "float range"),
    ],
    ids=["nan", "negative", "inf", "bool", "overflow"],
)
def test_frequency_shift_rejects_bad_input(config, n, match):
    with pytest.raises(ValueError, match=match):
        frequency_shift(config, n)


def test_frequency_shift_linear_in_n():
    a = frequency_shift(CONFIG, 1e20)
    b = frequency_shift(CONFIG, 2e20)
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_frequency_shift_linear_in_mode_index():
    base = ExperimentConfig(
        cavity_length=1000.0, wavelength=500e-9, mode=ModeIndices(0, 1, 10**6)
    )
    doubled = ExperimentConfig(
        cavity_length=1000.0, wavelength=500e-9, mode=ModeIndices(0, 1, 2 * 10**6)
    )
    a = frequency_shift(base, 1e20)
    b = frequency_shift(doubled, 1e20)
    assert b == pytest.approx(2.0 * a, rel=1e-9)


def test_frequency_shift_magnitude():
    # shift = (2 n kappa M / pi) * line-average
    params = derive_params(CONFIG)
    n = 1e20
    expected = 0.5 * params.amplitude(n) * params.mode_index * LINE_AVG_CENTER
    assert frequency_shift(CONFIG, n) == pytest.approx(expected, rel=1e-12)
