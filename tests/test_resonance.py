"""Tests for the global cavity resonance shift."""

import math

import numpy as np
import pytest

from cavlight import greens
from cavlight.greens import QuadratureSpec, convolve_points
from cavlight.fields import SRC_UNIT
from cavlight.modes import ModeIndices
from cavlight.physical import ExperimentConfig, derive_params
from cavlight.resonance import (
    LengthConvention,
    _unit_convolution,
    epsilon_point,
    frequency_shift,
    line_average_epsilon,
)

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
    exact = _unit_convolution(REFERENCE_POINTS)
    tight = QuadratureSpec(rel_tol=1e-11, panel_order=12, max_depth=24)
    quad = convolve_points(SRC_UNIT, REFERENCE_POINTS, tight)
    assert np.all(quad.converged)
    np.testing.assert_allclose(exact, quad.value, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("rel_tol", [1e-4, 1e-6, 1e-8])
def test_quadrature_reaches_its_tolerance_against_closed_form(rel_tol):
    # the tolerance holds; the claimed error itself under-claims near the
    # end faces, so it is not compared here
    exact = _unit_convolution(REFERENCE_POINTS)
    quad = convolve_points(SRC_UNIT, REFERENCE_POINTS, QuadratureSpec(rel_tol=rel_tol))
    assert np.all(np.abs(quad.value - exact) <= rel_tol * np.abs(exact))


def test_epsilon_point_is_twice_unit_convolution():
    assert epsilon_point(CENTER) == 2.0 * _unit_convolution([CENTER])[0]
    assert isinstance(epsilon_point(CENTER), float)


@pytest.mark.parametrize("point", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0)])
def test_epsilon_point_rejects_bad_point(point):
    with pytest.raises(ValueError, match="three finite coordinates"):
        epsilon_point(point)


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
